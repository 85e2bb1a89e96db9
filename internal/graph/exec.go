package graph

import (
	"fmt"

	"nautilus/internal/tensor"
)

// Tape records one forward pass of a Program so gradients can be
// back-propagated. It owns the step's activations, layer caches and
// gradients, in slices indexed by program position; layers stay stateless.
//
// The tape follows the program's liveness table: after each step it
// returns the activations whose last use that step was to the step scope
// (Scope.Free), and it meters its live bytes against the same table
// (PeakBytes). An output that shares its input's buffer — an identity
// Activation, a ReLU or Add written over the input the table says dies at
// its step — keeps that buffer alive until its own last use too. Feeds are
// never freed or written over: they belong to the caller. A layer runs in
// train mode only at a position with a backward step, so a node no
// gradient reaches keeps no backward state, even in a training pass.
type Tape struct {
	prog  *Program
	train bool
	alloc *tensor.Scope

	acts       []*tensor.Tensor // by position
	ins        []*tensor.Tensor // by parent slot: the inputs each layer ran on
	grads      []*tensor.Tensor // by position: the gradient w.r.t. the node's output
	paramGrads []*tensor.Tensor // by Program.Params() number
	caches     []any            // by position

	// owner[p] is the position whose buffer p's output is (p itself unless
	// it aliases an input); refs[o] counts o's live sharers. bytes is the
	// metered size by step: an alias's forward step meters nothing.
	owner, refs []int32
	bytes       []int64
	live, peak  int64

	backwardDone bool
}

// ForwardOptions controls a forward pass.
type ForwardOptions struct {
	// Train keeps what a backward reads: each layer with a backward step
	// in the program's liveness table runs in train mode and fills the
	// cache its Backward reads. Backward needs a train-mode pass. No
	// layer's output depends on the mode.
	Train bool
	// Alloc, when non-nil, is the step scope of the pass: feeds not already
	// in it are re-headered into it, so every intermediate, cache, and
	// (later) gradient tensor the pass creates comes from the scope, is
	// freed into it at its last use and recycled wholesale once the step
	// retires. Metering counts tensor lifetimes, not mallocs; it is lower
	// in a scope only where a layer writes over a dying input, which needs
	// the scope to own the buffer.
	Alloc *tensor.Scope
}

// Forward executes the model on the given feeds. Every input node of the
// model must be present in feeds, keyed by node name; reuse plans also feed
// materialized intermediates this way. train is ForwardOptions.Train.
func (m *Model) Forward(feeds map[string]*tensor.Tensor, train bool) (*Tape, error) {
	return m.ForwardOpts(feeds, ForwardOptions{Train: train})
}

// ForwardOpts is Forward with explicit options. It compiles the model for
// this one pass; callers that run a model step after step compile it once
// (Compile) and call Program.Run.
func (m *Model) ForwardOpts(feeds map[string]*tensor.Tensor, opts ForwardOptions) (*Tape, error) {
	p := Compile(m)
	in := make([]*tensor.Tensor, len(p.inputs))
	for k, n := range p.inputs {
		v, ok := feeds[n.Name]
		if !ok {
			return nil, fmt.Errorf("graph: no feed for input %q of model %q", n.Name, m.Name)
		}
		in[k] = v
	}
	return p.Run(in, opts), nil
}

// Run runs the program on feeds given in Inputs() order.
func (p *Program) Run(feeds []*tensor.Tensor, opts ForwardOptions) *Tape {
	t := p.newTape(opts)
	for k, n := range p.inputs {
		t.acts[p.pos[n.index]] = feeds[k]
	}
	t.forward()
	return t
}

// newTape allocates a tape's slices: one array of tensor pointers cut into
// five, one of int32s cut into two.
func (p *Program) newTape(opts ForwardOptions) *Tape {
	n, np := len(p.nodes), len(p.params)
	ptrs := make([]*tensor.Tensor, 2*n+len(p.par)+np)
	idx := make([]int32, 2*n)
	return &Tape{
		prog: p, train: opts.Train, alloc: opts.Alloc,
		acts: ptrs[:n:n], grads: ptrs[n : 2*n : 2*n], ins: ptrs[2*n : 2*n+len(p.par) : 2*n+len(p.par)],
		paramGrads: ptrs[2*n+len(p.par):],
		caches:     make([]any, n),
		owner:      idx[:n:n], refs: idx[n:],
		bytes: make([]int64, p.live.Steps()),
	}
}

// forward runs every forward step, the feeds already in acts.
func (t *Tape) forward() {
	p := t.prog
	for i, k := range p.kerns {
		t.owner[i], t.refs[i] = int32(i), 1
		if k == nil {
			t.acts[i] = tensor.WithAlloc(t.alloc, t.acts[i])
		} else {
			in := t.ins[p.parOff[i]:p.parOff[i+1]]
			for j, q := range p.par[p.parOff[i]:p.parOff[i+1]] {
				in[j] = t.acts[q]
			}
			var out *tensor.Tensor
			var cache any
			train := t.train && p.live.Bwd[i] >= 0
			if t.donor(i) {
				out, cache = in[0], k.(InPlaceForward).ForwardInto(in[0], in, train)
			} else {
				out, cache = k.Forward(in, train)
			}
			t.acts[i], t.caches[i] = out, cache
			for j, q := range p.par[p.parOff[i]:p.parOff[i+1]] {
				if tensor.SameBuffer(out, in[j]) {
					o := t.owner[q]
					t.owner[i] = o
					t.refs[o]++
					break
				}
			}
		}
		full := int64(t.acts[i].Len()) * 4
		if t.owner[i] == int32(i) {
			t.bytes[i] = full
		}
		if b := p.live.Bwd[i]; b >= 0 {
			t.bytes[b] = full // Figure 5: a backward step's tensor is s_mem
		}
		t.step(int32(i))
	}
}

// donor reports whether position i's layer writes its output over its
// first input: the program marks i (donates), the step scope owns the
// input's buffer, no other live tensor shares it (the alias rule then
// meters and frees it as i's output), and it is not a feed's buffer.
func (t *Tape) donor(i int) bool {
	p := t.prog
	if p.flags[i]&donates == 0 {
		return false
	}
	q := p.par[p.parOff[i]]
	o := t.owner[q]
	return t.alloc.Owns(t.acts[q]) && t.refs[o] == 1 && p.kerns[o] != nil
}

// step meters step s's tensor and retires the tensors whose last use s
// is: a forward tensor's buffer goes back to the scope once no alias of it
// is live, a backward tensor leaves the meter.
func (t *Tape) step(s int32) {
	p := t.prog
	t.live += t.bytes[s]
	t.peak = max(t.peak, t.live)
	for d := p.dies[s]; d >= 0; d = p.next[d] {
		if d >= p.live.F {
			t.live -= t.bytes[d]
			continue
		}
		o := t.owner[d]
		if t.refs[o]--; t.refs[o] == 0 {
			t.live -= t.bytes[o]
			if p.kerns[o] != nil {
				t.alloc.Free(t.acts[d]) // d shares o's buffer
			}
		}
		t.acts[d] = nil
		if p.live.Bwd[d] < 0 {
			t.caches[d] = nil // else its backward step drops it
		}
	}
}

// PeakBytes returns the high-water mark of the tape's metered live bytes
// so far: forward activations held from their step to their last use (an
// alias sharing its input's bytes), and a backward step's gradient metered
// at its node's output size from the step to its last use — the program's
// liveness table replayed over the pass's real tensor sizes.
func (t *Tape) PeakBytes() int64 { return t.peak }

// Output returns the recorded activation of a node: nil if the program
// does not run the node or the activation is past its last use.
func (t *Tape) Output(n *Node) *tensor.Tensor {
	if i := t.prog.position(n); i >= 0 {
		return t.acts[i]
	}
	return nil
}

// Backward back-propagates the given output gradients (keyed by node name)
// through the tape, accumulating parameter gradients for trainable nodes.
func (t *Tape) Backward(outGrads map[string]*tensor.Tensor) error {
	for name, g := range outGrads {
		n := t.prog.model.Node(name)
		if n == nil {
			return fmt.Errorf("graph: output gradient for unknown node %q", name)
		}
		if i := t.prog.position(n); i >= 0 {
			t.grads[i] = tensor.CloneIn(t.alloc, g)
		}
	}
	return t.backward()
}

// BackwardOutputs is Backward with the gradients given in the model's
// output order.
func (t *Tape) BackwardOutputs(outGrads []*tensor.Tensor) error {
	for k, o := range t.prog.outs {
		t.grads[o] = tensor.CloneIn(t.alloc, outGrads[k])
	}
	return t.backward()
}

// backward runs the loss step and every backward step, the output
// gradients already in grads.
//
// Gradient work is skipped below nodes with no trainable ancestors, and
// parameter-gradient computation is skipped at frozen nodes; this realizes
// the paper's cost model where a trainable layer costs 3× its forward
// FLOPs, a frozen non-materializable layer 2×, and a materializable layer
// 1× (Section 4.1).
func (t *Tape) backward() error {
	p := t.prog
	if !t.train {
		return fmt.Errorf("graph: backward over an eval-mode pass of model %q", p.model.Name)
	}
	if t.backwardDone {
		return fmt.Errorf("graph: second backward pass over one tape of model %q", p.model.Name)
	}
	t.backwardDone = true
	t.step(p.live.F) // the loss
	for i := len(p.nodes) - 1; i >= 0; i-- {
		b := p.live.Bwd[i]
		if b < 0 {
			continue // a feed, or a node no gradient reaches
		}
		if g := t.grads[i]; g != nil {
			adopted, err := t.backwardNode(i, g)
			if err != nil {
				return err
			}
			// The gradient is dead once distributed to params and parents,
			// unless a parent took its buffer over.
			if !adopted {
				t.alloc.Free(g)
			}
			t.grads[i] = nil
		}
		t.caches[i] = nil
		t.step(b)
	}
	return nil
}

// backwardNode runs position i's layer backward on its output gradient g
// and accumulates the parameter and parent gradients. It reports whether a
// parent took g's buffer over as its gradient.
//
// The call owns g when the step scope does: the tape's gradients are its
// own, shared with nothing. A layer may then write over g and return it —
// ReLU's mask, ChannelAffine's dx — or return it as it is, as Add does for
// every parent and an identity for its one. The first parent that starts
// its gradient with g adopts it, and the tape does not free it; every
// other parent copies it, in this call, before anything writes over it.
func (t *Tape) backwardNode(i int, g *tensor.Tensor) (adopted bool, err error) {
	p := t.prog
	parents := p.par[p.parOff[i]:p.parOff[i+1]]
	needGrad := p.live.NeedGrad
	needParams := p.flags[i]&Seeds != 0
	needInputs := false
	for _, q := range parents {
		needInputs = needInputs || needGrad[q]
	}
	if !needParams && !needInputs {
		return false, nil
	}
	// What the layer says its backward does not read, it gets as nil: its
	// buffer may already back another tensor.
	in := t.ins[p.parOff[i]:p.parOff[i+1]]
	if p.flags[i]&SkipsInputs != 0 {
		clear(in)
	}
	out := t.acts[i]
	if p.flags[i]&SkipsOutput != 0 {
		out = nil
	}
	own := t.alloc.Owns(g)
	gradIn, gradParams := p.kerns[i].Backward(t.caches[i], in, out, g, BackwardNeed{Inputs: needInputs, Params: needParams, OwnsGradOut: own})
	if needParams {
		nums := p.paramOf[p.paramOff[i]:p.paramOff[i+1]]
		if len(gradParams) != len(nums) {
			return false, fmt.Errorf("graph: node %q returned %d param grads for %d params", p.nodes[i].Name, len(gradParams), len(nums))
		}
		for j, k := range nums {
			if gradParams[j] != nil {
				accumulate(&t.paramGrads[k], gradParams[j], t.alloc, t.fresh(gradParams[j], g, out, in, gradParams, gradIn))
			}
		}
	}
	for j, q := range parents {
		if gradIn == nil || gradIn[j] == nil || !needGrad[q] {
			continue
		}
		d := gradIn[j]
		keep := t.fresh(d, g, out, in, gradParams, gradIn)
		if own && !adopted && t.grads[q] == nil && tensor.SameBuffer(d, g) {
			keep, adopted = true, true
		}
		accumulate(&t.grads[q], d, t.alloc, keep)
	}
	return adopted, nil
}

// fresh reports whether gradient d, returned by a backward call, belongs
// to the tape alone: the step scope owns its buffer (a heap run owns
// nothing, so it keeps copying), and no other tensor of the call shares
// it — not the call's output gradient g, which only backwardNode's
// adoption rule hands on, not the node's output or inputs, which the tape
// frees at their last use, and no other gradient the call returned, which
// an accumulation into d would write through. Views that start at an
// offset into a buffer are neither owned nor detected (tensor.SameBuffer);
// no layer makes one.
func (t *Tape) fresh(d, g, out *tensor.Tensor, in, gradParams, gradIn []*tensor.Tensor) bool {
	if !t.alloc.Owns(d) || tensor.SameBuffer(d, g) || out != nil && tensor.SameBuffer(d, out) {
		return false
	}
	sharers := 0
	for _, list := range [...][]*tensor.Tensor{in, gradParams, gradIn} {
		for _, o := range list {
			if o != nil && tensor.SameBuffer(d, o) {
				sharers++
			}
		}
	}
	return sharers == 1 // d itself
}

// accumulate adds g into *acc. The first gradient starts the accumulator:
// g itself when fresh, else a copy of g in s. Either way the sum is the
// same: AddInPlace onto g is the vadd AddInPlace runs onto its copy.
func accumulate(acc **tensor.Tensor, g *tensor.Tensor, s *tensor.Scope, fresh bool) {
	switch {
	case *acc != nil:
		tensor.AddInPlace(*acc, g)
	case fresh:
		*acc = g
	default:
		*acc = tensor.CloneIn(s, g)
	}
}

// ParamGrads returns the accumulated parameter gradients.
func (t *Tape) ParamGrads() map[*Param]*tensor.Tensor {
	grads := map[*Param]*tensor.Tensor{}
	for k, g := range t.paramGrads {
		if g != nil {
			grads[t.prog.params[k]] = g
		}
	}
	return grads
}

// ParamGradAt returns the accumulated gradient of Program.Params()[k], or
// nil if the pass produced none.
func (t *Tape) ParamGradAt(k int) *tensor.Tensor { return t.paramGrads[k] }
