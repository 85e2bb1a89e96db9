package graph

import (
	"nautilus/internal/tensor"
)

// Layer is a pure tensor function (paper Definition 2.1) as the planner
// sees it: a type and configuration, parameters, and per-record shapes and
// costs. Implementations hold parameters but never activations, so a
// single layer instance can appear in many models and plans simultaneously
// — the property multi-model merging and model fusion rely on.
//
// All shapes exchanged through OutShape and FLOPsPerRecord are per-record
// shapes (batch dimension excluded). Compile runs a layer through Kernel,
// or splices it through Block.
type Layer interface {
	// Type returns the layer type name, e.g. "dense".
	Type() string
	// Config returns the serializable hyperparameter configuration. Two
	// layers of the same type with equal configs compute the same function
	// given equal parameters.
	Config() map[string]any
	// Params returns the layer's parameters in a stable order. Layers with
	// no parameters return nil.
	Params() []*Param
	// OutShape infers the per-record output shape from per-record input
	// shapes. It panics if the inputs are not shape-compatible
	// (Definition 2.1).
	OutShape(in [][]int) []int
	// FLOPsPerRecord estimates the forward-pass floating point operations
	// for one record with the given per-record input shapes.
	FLOPsPerRecord(in [][]int) int64
}

// Kernel is a layer the executor runs. Forward returns an opaque cache
// that Backward consumes; tensors passed to either carry the batch as their
// leading dimension.
type Kernel interface {
	Layer
	// Forward computes the layer output for a batch. train says whether
	// the cache holds what Backward reads: Backward needs a train-mode
	// pass. The output does not depend on train.
	Forward(inputs []*tensor.Tensor, train bool) (out *tensor.Tensor, cache any)
	// Backward propagates gradOut to input gradients and parameter
	// gradients (aligned with Params()). Implementations may return nil
	// entries for inputs that need no gradient, and should honour need to
	// skip avoidable work: a frozen layer on the gradient path costs 2×
	// its forward FLOPs (need.Params false), a trainable one 3×.
	Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need BackwardNeed) (gradIn []*tensor.Tensor, gradParams []*tensor.Tensor)
}

// Block is a layer that is a model of layers, as transformer and residual
// blocks are (paper Section 4.1): one node to the planner, whose costs
// cover the inner model. Compile splices the inner model into the program
// at the node's position, inner input k standing for the node's k-th
// parent and the inner model's one output for the node.
type Block interface {
	Layer
	Inner() *Model
}

// BackwardNeed tells a layer which gradients its Backward call must
// produce.
type BackwardNeed struct {
	// Inputs requests input gradients (the layer has trainable ancestors).
	Inputs bool
	// Params requests parameter gradients (the node is trainable).
	Params bool
	// OwnsGradOut hands gradOut's buffer to the call: the step scope owns
	// it and nothing else of the step shares it, so Backward may write over
	// it, element i read before element i is written, and return it (or a
	// view of it) as an input gradient.
	OwnsGradOut bool
}

// BackwardReader is implemented by a layer whose Backward reads less than
// the paper's rule assumes (Section 4.3.3: a backward step reads the
// layer's inputs and its output). inputs and output report what Backward
// reads; a layer that does not implement it reads both. Compile turns the
// answer into the SkipsInputs and SkipsOutput flags, so the tape frees what
// is not read at its last other reader, and passes nil in its place to
// Backward. A layer's cache must not keep what it says it does not read.
type BackwardReader interface {
	BackwardReads() (inputs, output bool)
}

// InPlaceForward is implemented by an elementwise layer whose output has
// its first input's shape and may be written over that input: element i of
// the output is computed from element i of the inputs, each read before it
// is written. ForwardInto is Forward writing into out, which is either a
// fresh zero tensor of the output's shape (Forward allocates one and calls
// ForwardInto) or inputs[0] itself. The tape donates inputs[0] only to a
// layer whose Backward does not read its inputs (BackwardReader), and only
// when no other reader of that buffer is ahead.
type InPlaceForward interface {
	ForwardInto(out *tensor.Tensor, inputs []*tensor.Tensor, train bool) (cache any)
}

// PartialFLOPs is implemented by partially trainable layers to report the
// forward FLOPs of just their trainable sub-layers. The cost model charges
// such a layer 2× its forward FLOPs (forward + input gradients through the
// frozen base) plus 1× the trainable share (parameter gradients), instead
// of the blanket 3× of a fully trainable layer.
type PartialFLOPs interface {
	TrainableFLOPsPerRecord(in [][]int) int64
}

// ActivationSizer optionally reports the total internal activation bytes a
// layer produces per record during the forward pass. Composite layers
// (transformer blocks, residual blocks) implement it so peak-memory
// estimation accounts for every intermediate tensor the backward pass needs
// (paper Section 4.3.3); plain layers default to their output size.
type ActivationSizer interface {
	ActivationBytesPerRecord(in [][]int) int64
}

// InputLayer marks a model input (paper notation I). Its config records the
// per-record shape fed at run time. FeedKey distinguishes ordinary dataset
// inputs ("") from materialized-intermediate feeds created by reuse plans.
type InputLayer struct {
	Shape   []int
	FeedKey string
}

// NewInput returns an input layer with the given per-record shape.
func NewInput(shape ...int) *InputLayer {
	return &InputLayer{Shape: append([]int(nil), shape...)}
}

// NewFeed returns an input layer that stands for a materialized
// intermediate output identified by key (the source expression signature).
func NewFeed(key string, shape ...int) *InputLayer {
	return &InputLayer{Shape: append([]int(nil), shape...), FeedKey: key}
}

func (l *InputLayer) Type() string { return "input" }

func (l *InputLayer) Config() map[string]any {
	cfg := map[string]any{"shape": l.Shape}
	if l.FeedKey != "" {
		cfg["feed_key"] = l.FeedKey
	}
	return cfg
}

func (l *InputLayer) Params() []*Param { return nil }

func (l *InputLayer) OutShape(in [][]int) []int {
	if len(in) != 0 {
		panic("graph: input layer takes no inputs")
	}
	return l.Shape
}

func (l *InputLayer) FLOPsPerRecord(in [][]int) int64 { return 0 }
