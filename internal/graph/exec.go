package graph

import (
	"fmt"

	"nautilus/internal/tensor"
)

// Tape records one forward pass over a model so gradients can be
// back-propagated. It owns all activations and layer caches; layers stay
// stateless.
type Tape struct {
	model  *Model
	train  bool
	acts   map[*Node]*tensor.Tensor
	caches map[*Node]any

	paramGrads map[*Param]*tensor.Tensor
	inputGrads map[*Node]*tensor.Tensor

	alloc *tensor.Scope

	allocObs AllocObserver
}

// AllocObserver receives the byte-level tensor allocation and release
// events of a backward pass, letting observers replay the executor's
// live-tensor high-water mark (the B_mem cross-check against the
// analytical estimate of Section 4.3.3). Forward activations are not
// reported — they are all live for the whole tape lifetime and observers
// seed themselves from LiveActivationBytes.
type AllocObserver interface {
	Alloc(bytes int64)
	Free(bytes int64)
}

// SetAllocObserver installs (or, with nil, removes) the tape's allocation
// observer. Call between Forward and Backward.
func (t *Tape) SetAllocObserver(o AllocObserver) { t.allocObs = o }

func (t *Tape) observeAlloc(x *tensor.Tensor) {
	if t.allocObs != nil && x != nil {
		t.allocObs.Alloc(int64(x.Len()) * 4)
	}
}

func (t *Tape) observeFree(x *tensor.Tensor) {
	if t.allocObs != nil && x != nil {
		t.allocObs.Free(int64(x.Len()) * 4)
	}
}

// ForwardOptions controls a forward pass.
type ForwardOptions struct {
	// Train enables training-only layer behaviour (dropout).
	Train bool
	// Alloc, when non-nil, is the step scope of the pass: feeds not already
	// in it are re-headered into it, so every intermediate, cache, and
	// (later) gradient tensor the pass creates comes from the scope and can
	// be recycled wholesale once the step retires. Logical allocation
	// reporting to the AllocObserver is unaffected — metering counts tensor
	// lifetimes, not mallocs.
	Alloc *tensor.Scope
}

// Forward executes the model on the given feeds. Every input node of the
// model must be present in feeds, keyed by node name; reuse plans also feed
// materialized intermediates this way. train enables training-only layer
// behaviour (dropout).
func (m *Model) Forward(feeds map[string]*tensor.Tensor, train bool) (*Tape, error) {
	return m.ForwardOpts(feeds, ForwardOptions{Train: train})
}

// ForwardOpts is Forward with explicit options.
func (m *Model) ForwardOpts(feeds map[string]*tensor.Tensor, opts ForwardOptions) (*Tape, error) {
	t := &Tape{
		model:  m,
		train:  opts.Train,
		acts:   make(map[*Node]*tensor.Tensor, len(m.nodes)),
		caches: make(map[*Node]any),
		alloc:  opts.Alloc,
	}
	for _, n := range m.Reachable() {
		if n.IsInput() {
			v, ok := feeds[n.Name]
			if !ok {
				return nil, fmt.Errorf("graph: no feed for input %q of model %q", n.Name, m.Name)
			}
			t.acts[n] = tensor.WithAlloc(opts.Alloc, v)
			continue
		}
		in := make([]*tensor.Tensor, len(n.Parents))
		for i, p := range n.Parents {
			in[i] = t.acts[p]
		}
		out, cache := n.Layer.Forward(in, opts.Train)
		t.acts[n] = out
		t.caches[n] = cache
	}
	return t, nil
}

// Output returns the recorded activation of a node.
func (t *Tape) Output(n *Node) *tensor.Tensor { return t.acts[n] }

// Outputs returns the activations of the model's output nodes in order.
func (t *Tape) Outputs() []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(t.model.Outputs))
	for i, o := range t.model.Outputs {
		outs[i] = t.acts[o]
	}
	return outs
}

// BackwardOptions controls which gradients a backward pass produces.
type BackwardOptions struct {
	// InputGrads forces gradient flow all the way to input nodes, whose
	// gradients become available via InputGrad. Composite layers use this
	// to chain backward passes through their inner model.
	InputGrads bool
	// SkipParamGrads suppresses all parameter-gradient computation; a
	// frozen composite uses it so its inner backward pass only routes
	// input gradients (2× forward cost, not 3×).
	SkipParamGrads bool
}

// Backward back-propagates the given output gradients (keyed by node name)
// through the tape, accumulating parameter gradients for trainable nodes.
func (t *Tape) Backward(outGrads map[string]*tensor.Tensor) error {
	return t.BackwardOpts(outGrads, BackwardOptions{})
}

// BackwardOpts is Backward with explicit options.
//
// Gradient work is skipped below nodes with no trainable ancestors, and
// parameter-gradient computation is skipped at frozen nodes; this realizes
// the paper's cost model where a trainable layer costs 3× its forward
// FLOPs, a frozen non-materializable layer 2×, and a materializable layer
// 1× (Section 4.1).
func (t *Tape) BackwardOpts(outGrads map[string]*tensor.Tensor, opts BackwardOptions) error {
	m := t.model
	if t.paramGrads == nil {
		t.paramGrads = map[*Param]*tensor.Tensor{}
	}
	if t.inputGrads == nil {
		t.inputGrads = map[*Node]*tensor.Tensor{}
	}
	needGrad := t.needGradSet(opts.InputGrads)

	nodeGrads := map[*Node]*tensor.Tensor{}
	for name, g := range outGrads {
		n := m.Node(name)
		if n == nil {
			return fmt.Errorf("graph: output gradient for unknown node %q", name)
		}
		nodeGrads[n] = tensor.CloneIn(t.alloc, g)
		t.observeAlloc(nodeGrads[n])
	}

	reach := m.Reachable()
	for i := len(reach) - 1; i >= 0; i-- {
		n := reach[i]
		g := nodeGrads[n]
		if g == nil {
			continue
		}
		if n.IsInput() {
			if opts.InputGrads {
				t.inputGrads[n] = g
			} else {
				t.observeFree(g)
			}
			continue
		}
		needParams := !n.Frozen() && !opts.SkipParamGrads
		needInputs := anyParentNeedsGrad(n, needGrad)
		if !needParams && !needInputs {
			t.observeFree(g)
			continue
		}
		in := make([]*tensor.Tensor, len(n.Parents))
		for j, p := range n.Parents {
			in[j] = t.acts[p]
		}
		gradIn, gradParams := n.Layer.Backward(t.caches[n], in, t.acts[n], g, BackwardNeed{Inputs: needInputs, Params: needParams})
		if needParams {
			params := n.Layer.Params()
			if len(gradParams) != len(params) {
				return fmt.Errorf("graph: node %q returned %d param grads for %d params", n.Name, len(gradParams), len(params))
			}
			for j, p := range params {
				if gradParams[j] == nil {
					continue
				}
				if acc := t.paramGrads[p]; acc != nil {
					tensor.AddInPlace(acc, gradParams[j])
				} else {
					t.paramGrads[p] = tensor.CloneIn(t.alloc, gradParams[j])
					t.observeAlloc(t.paramGrads[p])
				}
			}
		}
		for j, p := range n.Parents {
			if gradIn == nil || gradIn[j] == nil || !needGrad[p] {
				continue
			}
			if acc := nodeGrads[p]; acc != nil {
				tensor.AddInPlace(acc, gradIn[j])
			} else {
				nodeGrads[p] = tensor.CloneIn(t.alloc, gradIn[j])
				t.observeAlloc(nodeGrads[p])
			}
		}
		// n's own gradient is dead once distributed to params and parents.
		t.observeFree(g)
	}
	return nil
}

// ParamGrads returns the accumulated parameter gradients.
func (t *Tape) ParamGrads() map[*Param]*tensor.Tensor { return t.paramGrads }

// InputGrad returns the gradient that flowed into the named input node
// during a BackwardOpts call with InputGrads set, or nil.
func (t *Tape) InputGrad(name string) *tensor.Tensor {
	n := t.model.Node(name)
	if n == nil {
		return nil
	}
	return t.inputGrads[n]
}

// needGradSet computes, for every node, whether gradient must flow *into*
// it: true iff the node or any of its ancestors is trainable, or it is an
// input node and input gradients were requested.
func (t *Tape) needGradSet(inputGrads bool) map[*Node]bool {
	need := map[*Node]bool{}
	for _, n := range t.model.nodes {
		v := !n.Frozen() || (inputGrads && n.IsInput())
		if !v {
			for _, p := range n.Parents {
				if need[p] {
					v = true
					break
				}
			}
		}
		need[n] = v
	}
	return need
}

func anyParentNeedsGrad(n *Node, need map[*Node]bool) bool {
	for _, p := range n.Parents {
		if need[p] {
			return true
		}
	}
	return false
}

// LiveActivationBytes returns the total bytes of all activations currently
// recorded on the tape, used by tests validating the analytical peak-memory
// estimator against real executions.
func (t *Tape) LiveActivationBytes() int64 {
	var total int64
	for _, a := range t.acts {
		total += int64(a.Len()) * 4
	}
	return total
}
