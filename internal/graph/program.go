package graph

import "slices"

// Program is a model compiled for execution: its reachable nodes in
// topological order, their parents as positions, the distinct parameters
// they hold, and the step's liveness table. Tapes index everything by
// program position — nothing per step is keyed by node.
//
// A Program is compiled once and then only read, so any number of tapes
// may run it at once: the trainer compiles one per group after
// opt.BuildPlanModel, the materializer one per view, and a Composite one at
// construction for its inner model, which concurrent groups share.
// Model.ForwardOpts compiles a fresh one per call.
type Program struct {
	model  *Model
	nodes  []*Node // by position: the reachable nodes in topological order
	pos    []int32 // by Node.Index(): the node's position, −1 if unreachable
	parOff []int32 // position p's parents are par[parOff[p]:parOff[p+1]]
	par    []int32
	outs   []int32 // the outputs' positions
	inputs []*Node // the reachable input nodes, in order: Run's feeds
	flags  []uint8 // by position: the flags live was built from, and donates

	params   []*Param // distinct parameters of the computed nodes
	paramOff []int32  // position p's j-th layer param is params[paramOf[paramOff[p]+j]]
	paramOf  []int32

	// live is the step table by position (every position is held);
	// inputGrads says whether it was built with input nodes seeding
	// gradient. needGrad is by position, for backward passes that do not
	// ask for input gradients.
	live       Liveness
	inputGrads bool
	needGrad   []bool
	// dies[s] is the first of the steps whose tensors die at step s, next[t]
	// the one after t; −1 ends a list.
	dies, next []int32
}

// donates marks a position whose layer may write its output over its first
// parent's tensor (InPlaceForward) because the table says that tensor dies
// at the position's forward step, the layer's backward does not read it,
// and no other parent slot of the position is the same tensor. The tape
// donates only when, at run time, the scope owns the buffer, no other
// live tensor shares it, and it is not a feed's. Liveness.Build ignores
// the bit.
const donates uint8 = 1 << 7

// Compile compiles m. With inputGrads the table is the one of a backward
// pass that asks for input gradients (BackwardOptions.InputGrads): the
// widest pass the program's tapes may then run, as a Composite's inner
// model needs; without it such a pass is an error.
func Compile(m *Model, inputGrads bool) *Program {
	keep := m.MarkReachable(nil)
	n, npar, nin := 0, 0, 0
	for i, k := range keep {
		if k {
			n, npar = n+1, npar+len(m.nodes[i].Parents)
			if m.nodes[i].IsInput() {
				nin++
			}
		}
	}
	// One array backs the int32 tables whose lengths are known up front.
	ints := make([]int32, len(m.nodes)+2*(n+1)+npar+len(m.Outputs))
	cut := func(l, c int) []int32 { s := ints[:l:c]; ints = ints[c:]; return s }
	p := &Program{model: m, inputGrads: inputGrads,
		nodes: make([]*Node, 0, n), pos: cut(len(m.nodes), len(m.nodes)),
		parOff: cut(1, n+1), par: cut(0, npar), paramOff: cut(1, n+1),
		inputs: make([]*Node, 0, nin), outs: cut(0, len(m.Outputs)),
		flags: make([]uint8, n), params: make([]*Param, 0, 2*n), paramOf: make([]int32, 0, 2*n)}
	for i, k := range keep {
		p.pos[i] = -1
		if k {
			p.pos[i] = int32(len(p.nodes))
			p.nodes = append(p.nodes, m.nodes[i])
		}
	}
	for i, node := range p.nodes {
		for _, q := range node.Parents {
			p.par = append(p.par, p.pos[q.index])
		}
		p.parOff = append(p.parOff, int32(len(p.par)))
		p.flags[i] = Held
		if node.IsInput() {
			p.inputs = append(p.inputs, node)
		} else {
			p.flags[i] |= Computed
			params := node.Layer.Params()
			if node.Trainable && len(params) > 0 { // !Frozen()
				p.flags[i] |= Seeds
			}
			if r, ok := node.Layer.(BackwardReader); ok {
				ins, out := r.BackwardReads()
				if !ins {
					p.flags[i] |= SkipsInputs
				}
				if !out {
					p.flags[i] |= SkipsOutput
				}
			}
			for _, q := range params {
				k := slices.Index(p.params, q)
				if k < 0 {
					k, p.params = len(p.params), append(p.params, q)
				}
				p.paramOf = append(p.paramOf, int32(k))
			}
		}
		p.paramOff = append(p.paramOff, int32(len(p.paramOf)))
	}
	for _, o := range m.Outputs {
		p.outs = append(p.outs, p.pos[o.index])
	}
	p.live.Build(p.parOff, p.par, p.flags, p.outs)
	p.needGrad = p.live.NeedGrad
	if inputGrads {
		for _, in := range p.inputs {
			p.flags[p.pos[in.index]] |= Seeds
		}
		p.live.NeedGrad = nil // keep the base bits; Build reuses the rest
		p.live.Build(p.parOff, p.par, p.flags, p.outs)
	}

	for i, node := range p.nodes {
		_, inPlace := node.Layer.(InPlaceForward)
		if !inPlace || p.flags[i]&SkipsInputs == 0 {
			continue
		}
		ps := p.par[p.parOff[i]:p.parOff[i+1]]
		if q := ps[0]; p.live.LastUse[p.live.Fwd[q]] == p.live.Fwd[i] && !slices.Contains(ps[1:], q) {
			p.flags[i] |= donates
		}
	}

	// Thread the tensors that die at each step into a list per step.
	steps := p.live.Steps()
	lists := make([]int32, 2*steps)
	p.dies, p.next = lists[:steps], lists[steps:]
	for s := range p.dies {
		p.dies[s] = -1
	}
	for s := steps - 1; s >= 0; s-- {
		last := p.retireAt(s)
		p.next[s], p.dies[last] = p.dies[last], int32(s)
	}
	return p
}

// retireAt is the step after which a tape retires step s's tensor.
func (p *Program) retireAt(s int) int32 { return p.live.LastUse[s] }

// Nodes returns the reachable nodes by position. The slice must not be
// modified.
func (p *Program) Nodes() []*Node { return p.nodes }

// Inputs returns the reachable input nodes: the order Run takes feeds in.
// The slice must not be modified.
func (p *Program) Inputs() []*Node { return p.inputs }

// Params returns the distinct parameters of the computed nodes, in the
// order Tape.ParamGradAt takes. The slice must not be modified.
func (p *Program) Params() []*Param { return slices.Clip(p.params) }

// Liveness returns the step table, by position. It must not be modified.
func (p *Program) Liveness() *Liveness { return &p.live }

// position returns n's position, or −1 if n is not a reachable node of the
// program's model.
func (p *Program) position(n *Node) int32 {
	if n == nil || n.index >= len(p.pos) || p.model.nodes[n.index] != n {
		return -1
	}
	return p.pos[n.index]
}
