package layers

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Composite is a layer backed by an inner model. The paper treats
// transformer and residual blocks as composite layers (Section 4.1): a
// single node in the optimizer's multi-model graph whose memory footprint
// sums every internal activation the backward pass retains (Section 4.3.3).
// It is a graph.Block: graph.Compile splices the inner model into the
// program that runs it.
//
// A composite may be partially trainable (adapter blocks train only their
// adapters): its node trains what its inner nodes mark trainable
// (graph.Node.TrainableParams).
type Composite struct {
	typ   string
	cfg   map[string]any
	inner *graph.Model

	params []*graph.Param // every distinct inner param, by first inner node

	// Per-record facts of the inner model, computed once at construction.
	outShape        []int
	flops           int64 // forward FLOPs of every inner node
	trainableFLOPs  int64 // ... of the inner trainable nodes only
	activationBytes int64 // activation bytes of every inner node
}

func newComposite(typ string, cfg map[string]any, inner *graph.Model) *Composite {
	c := &Composite{typ: typ, cfg: cfg, inner: inner}
	// Qualify each param's name by the inner node holding it first, for
	// checkpointing.
	seen := map[*graph.Param]bool{}
	for i, keep := range inner.MarkReachable(nil) {
		n := inner.Nodes()[i]
		if !keep {
			panic(fmt.Sprintf("layers: composite %q has inner nodes its output does not read", typ))
		}
		for _, p := range n.Layer.Params() {
			if !seen[p] {
				seen[p] = true
				p.Name = n.Name + "." + p.Name
				c.params = append(c.params, p)
			}
		}
	}
	shapes, err := inner.Validate()
	if err != nil {
		panic(fmt.Sprintf("layers: composite %q inner model invalid: %v", typ, err))
	}
	// The inner model's input shapes are fixed (OutShape rejects any other),
	// so its cost-model facts are constants of the composite.
	c.outShape = shapes[inner.Outputs[0].Index()]
	for _, n := range inner.Nodes() {
		if n.IsInput() {
			continue
		}
		ins := make([][]int, len(n.Parents))
		for i, p := range n.Parents {
			ins[i] = shapes[p.Index()]
		}
		f := n.Layer.FLOPsPerRecord(ins)
		c.flops += f
		if !n.Frozen() {
			c.trainableFLOPs += f
		}
		c.activationBytes += graph.ActivationBytesPerRecord(n, ins)
	}
	return c
}

func (c *Composite) Type() string           { return c.typ }
func (c *Composite) Config() map[string]any { return c.cfg }
func (c *Composite) Params() []*graph.Param { return c.params }

// Inner implements graph.Block: the model Compile splices in the
// composite's place.
func (c *Composite) Inner() *graph.Model { return c.inner }

func (c *Composite) OutShape(in [][]int) []int {
	inputs := c.inner.Inputs()
	requireInputs(c.typ, in, len(inputs))
	for i, n := range inputs {
		want := n.Layer.(*graph.InputLayer).Shape
		if !tensor.ShapeEq(in[i], want) {
			panic(fmt.Sprintf("layers: composite %q input %d is %v, want %v", c.typ, i, in[i], want))
		}
	}
	return append([]int(nil), c.outShape...)
}

func (c *Composite) FLOPsPerRecord(in [][]int) int64 { return c.flops }

// TrainableFLOPsPerRecord implements graph.PartialFLOPs: the forward FLOPs
// of just the inner trainable nodes (e.g. the adapters).
func (c *Composite) TrainableFLOPsPerRecord(in [][]int) int64 { return c.trainableFLOPs }

// ActivationBytesPerRecord sums the activation bytes of every inner node,
// accounting for all intermediate tensors the backward pass needs.
func (c *Composite) ActivationBytesPerRecord(in [][]int) int64 { return c.activationBytes }

// TransformerBlockConfig parameterizes NewTransformerBlock.
type TransformerBlockConfig struct {
	Seq, Dim, Heads, FFN int
	Seed                 int64
	// Adapter > 0 inserts Houlsby bottleneck adapters of that width after
	// the attention and feed-forward sub-layers; only the adapters are
	// trainable inside the block.
	Adapter int
	// AdapterSeed seeds adapter initialization independently of the
	// pre-trained block weights.
	AdapterSeed int64
}

// NewTransformerBlock builds a post-LN BERT-style encoder block over
// [seq, dim] records:
//
//	h = LN(x + [adapter](MHA(x)))
//	y = LN(h + [adapter](FFN(h)))
//
// Pre-trained weights derive deterministically from cfg.Seed. With
// cfg.Adapter > 0 the block follows the Houlsby adapter-training scheme:
// the base weights stay frozen inside the block and only the adapters
// train.
func NewTransformerBlock(cfg TransformerBlockConfig) *Composite {
	inner := graph.NewModel("transformer_block")
	x := inner.AddInput("x", cfg.Seq, cfg.Dim)

	mha := inner.AddNode("mha", NewMultiHeadAttention(cfg.Dim, cfg.Heads, cfg.Seed), x)
	attnOut := mha
	if cfg.Adapter > 0 {
		attnOut = inner.AddNode("adapter1", NewAdapter(cfg.Dim, cfg.Adapter, cfg.AdapterSeed), mha)
	}
	res1 := inner.AddNode("res1", NewAdd(2), x, attnOut)
	ln1 := inner.AddNode("ln1", NewLayerNorm(cfg.Dim), res1)

	ffn1 := inner.AddNode("ffn1", NewDense(cfg.Dim, cfg.FFN, ActGeLU, cfg.Seed+101), ln1)
	// Small-init residual write, as for the attention output projection.
	ffn2 := inner.AddNode("ffn2", NewDenseNormalInit(cfg.FFN, cfg.Dim, ActNone, cfg.Seed+102, 0.02), ffn1)
	ffnOut := ffn2
	if cfg.Adapter > 0 {
		ffnOut = inner.AddNode("adapter2", NewAdapter(cfg.Dim, cfg.Adapter, cfg.AdapterSeed+1), ffn2)
	}
	res2 := inner.AddNode("res2", NewAdd(2), ln1, ffnOut)
	ln2 := inner.AddNode("ln2", NewLayerNorm(cfg.Dim), res2)
	inner.SetOutputs(ln2)

	// With adapters, only the adapter nodes train; without, the whole
	// block's trainability is governed by the outer node flag.
	for _, n := range inner.Nodes() {
		if cfg.Adapter > 0 {
			n.Trainable = n.Name == "adapter1" || n.Name == "adapter2"
		} else {
			n.Trainable = true
		}
	}

	typ := "transformer_block"
	c := map[string]any{
		"seq": cfg.Seq, "dim": cfg.Dim, "heads": cfg.Heads, "ffn": cfg.FFN,
		"seed": cfg.Seed, "adapter": cfg.Adapter, "adapter_seed": cfg.AdapterSeed,
	}
	return newComposite(typ, c, inner)
}

// ResidualBlockConfig parameterizes NewResidualBlock.
type ResidualBlockConfig struct {
	InH, InW        int
	InC, MidC, OutC int
	Stride          int
	Seed            int64
}

// NewResidualBlock builds a ResNet bottleneck block over [H, W, InC]
// records: 1×1 reduce → 3×3 → 1×1 expand, each followed by a per-channel
// affine (frozen-statistics batch-norm equivalent), with a projection
// shortcut when the stride or channel count changes.
func NewResidualBlock(cfg ResidualBlockConfig) *Composite {
	inner := graph.NewModel("residual_block")
	x := inner.AddInput("x", cfg.InH, cfg.InW, cfg.InC)

	c1 := inner.AddNode("conv1", NewConv2D(cfg.InC, cfg.MidC, 1, 1, 0, ActNone, cfg.Seed+1), x)
	b1 := inner.AddNode("bn1", NewChannelAffine(cfg.MidC, cfg.Seed+2), c1)
	r1 := inner.AddNode("relu1", NewActivation(ActReLU), b1)

	c2 := inner.AddNode("conv2", NewConv2D(cfg.MidC, cfg.MidC, 3, cfg.Stride, 1, ActNone, cfg.Seed+3), r1)
	b2 := inner.AddNode("bn2", NewChannelAffine(cfg.MidC, cfg.Seed+4), c2)
	r2 := inner.AddNode("relu2", NewActivation(ActReLU), b2)

	c3 := inner.AddNode("conv3", NewConv2D(cfg.MidC, cfg.OutC, 1, 1, 0, ActNone, cfg.Seed+5), r2)
	b3 := inner.AddNode("bn3", NewChannelAffine(cfg.OutC, cfg.Seed+6), c3)

	shortcut := x
	if cfg.Stride != 1 || cfg.InC != cfg.OutC {
		sc := inner.AddNode("conv_sc", NewConv2D(cfg.InC, cfg.OutC, 1, cfg.Stride, 0, ActNone, cfg.Seed+7), x)
		shortcut = inner.AddNode("bn_sc", NewChannelAffine(cfg.OutC, cfg.Seed+8), sc)
	}
	sum := inner.AddNode("res", NewAdd(2), b3, shortcut)
	out := inner.AddNode("relu_out", NewActivation(ActReLU), sum)
	inner.SetOutputs(out)

	for _, n := range inner.Nodes() {
		n.Trainable = true
	}

	c := map[string]any{
		"in_h": cfg.InH, "in_w": cfg.InW, "in_c": cfg.InC, "mid_c": cfg.MidC,
		"out_c": cfg.OutC, "stride": cfg.Stride, "seed": cfg.Seed,
	}
	return newComposite("residual_block", c, inner)
}

// Adapter is a Houlsby bottleneck adapter: y = x + GeLU(x·Wd + bd)·Wu + bu,
// the parameter-efficient unit inserted into frozen transformer blocks
// during adapter training (paper Section 2.4).
type Adapter struct {
	Dim, Bottleneck int

	wd, bd, wu, bu *graph.Param
}

// NewAdapter returns an adapter whose up-projection initializes near zero,
// so an untrained adapter is close to the identity.
func NewAdapter(dim, bottleneck int, seed int64) *Adapter {
	return &Adapter{
		Dim: dim, Bottleneck: bottleneck,
		wd: graph.NewParamGlorot("wd", seed+1, dim, bottleneck),
		bd: graph.NewParam("bd", bottleneck),
		wu: graph.NewParamNormal("wu", seed+2, 1e-3, bottleneck, dim),
		bu: graph.NewParam("bu", dim),
	}
}

func (l *Adapter) Type() string { return "adapter" }

func (l *Adapter) Config() map[string]any {
	return map[string]any{"dim": l.Dim, "bottleneck": l.Bottleneck}
}

func (l *Adapter) Params() []*graph.Param {
	return []*graph.Param{l.wd, l.bd, l.wu, l.bu}
}

func (l *Adapter) OutShape(in [][]int) []int {
	requireInputs("adapter", in, 1)
	if in[0][len(in[0])-1] != l.Dim {
		panic(fmt.Sprintf("layers: adapter(dim=%d) got %v", l.Dim, in[0]))
	}
	return append([]int(nil), in[0]...)
}

func (l *Adapter) FLOPsPerRecord(in [][]int) int64 {
	rows := int64(tensor.NumElems(in[0])) / int64(l.Dim)
	down := 2 * rows * int64(l.Dim) * int64(l.Bottleneck)
	up := 2 * rows * int64(l.Bottleneck) * int64(l.Dim)
	act := rows * int64(l.Bottleneck) * activationFLOPsPerElem(ActGeLU)
	return down + up + act + rows*int64(l.Dim)
}

// ActivationBytesPerRecord includes the bottleneck intermediates retained
// for backward.
func (l *Adapter) ActivationBytesPerRecord(in [][]int) int64 {
	rows := int64(tensor.NumElems(in[0])) / int64(l.Dim)
	return (2*rows*int64(l.Bottleneck) + rows*int64(l.Dim)) * 4
}

type adapterCache struct {
	act actCache       // act′ of the bottleneck pre-activation
	h   *tensor.Tensor // post-activation bottleneck
}

func (l *Adapter) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	h, c := fusedAct(ActGeLU, tensor.MatMul(x, l.wd.Tensor()), l.bd.Tensor(), train)
	up, _ := fusedAct(ActNone, tensor.MatMul(h, l.wu.Tensor()), l.bu.Tensor(), train)
	out := tensor.Add(x.Reshape(up.Shape()...), up).Reshape(x.Shape()...)
	return out, adapterCache{act: c, h: h}
}

func (l *Adapter) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(adapterCache)
	x := inputs[0]
	g := gradOut.Reshape(-1, l.Dim)
	var dwu, dbu, dwd, dbd *tensor.Tensor
	dh := tensor.MatMulBT(g, l.wu.Tensor())
	dz := c.act.backward(ActGeLU, c.h, dh, false)
	if need.Params {
		dwu = tensor.MatMulAT(c.h, g)
		dbu = tensor.SumRows(g)
		dwd = tensor.MatMulAT(x, dz)
		dbd = tensor.SumRows(dz)
	}
	var dx *tensor.Tensor
	if need.Inputs {
		dx = tensor.MatMulBT(dz, l.wd.Tensor())
		tensor.AddInPlace(dx, g)
		dx = dx.Reshape(x.Shape()...)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dwd, dbd, dwu, dbu}
}
