package graph

import (
	"fmt"
	"slices"
)

// Program is a model compiled for execution: the nodes it runs in
// topological order, their parents as positions, the distinct parameters
// they hold, and the step's liveness table. Tapes index everything by
// program position — nothing per step is keyed by node.
//
// A Block is spliced: its inner nodes take positions of their own, so one
// table and one tape cover every tensor of the step, a block's inner ones
// too. The planner still sees the block as one node.
//
// A Program is compiled once and then only read, so any number of tapes
// may run it at once: the trainer compiles one per group after
// opt.BuildPlanModel and the materializer one per view.
// Model.ForwardOpts compiles a fresh one per call.
type Program struct {
	model  *Model
	nodes  []*Node  // by position: a reachable node, or an inner node of a block
	kerns  []Kernel // by position: the layer run there, nil for a feed
	pos    []int32  // by Node.Index(): the node's position (a block's inner output's), −1 if unreachable
	parOff []int32  // position p's parents are par[parOff[p]:parOff[p+1]]
	par    []int32
	outs   []int32 // the outputs' positions
	inputs []*Node // the reachable input nodes, in order: Run's feeds
	flags  []uint8 // by position: the flags live was built from, and donates

	params   []*Param // distinct parameters of the computed nodes
	paramOff []int32  // position p's j-th layer param is params[paramOf[paramOff[p]+j]]
	paramOf  []int32

	live Liveness // the step table, by position (every position is held)
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

// Compile compiles m, splicing every Block it reaches. It panics, naming
// the node, if a computed node's layer is neither a Kernel nor a Block.
func Compile(m *Model) *Program {
	n := spliced(m)
	p := &Program{model: m,
		nodes: make([]*Node, 0, n), kerns: make([]Kernel, 0, n), flags: make([]uint8, 0, n),
		parOff: append(make([]int32, 0, n+1), 0), par: make([]int32, 0, 2*n),
		paramOff: append(make([]int32, 0, n+1), 0), params: make([]*Param, 0, 2*n), paramOf: make([]int32, 0, 2*n)}
	p.pos = p.splice(m, nil, true)
	for _, o := range m.Outputs {
		p.outs = append(p.outs, p.pos[o.index])
	}
	p.live.Build(p.parOff, p.par, p.flags, p.outs)

	for i, k := range p.kerns {
		_, inPlace := k.(InPlaceForward)
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

// splice gives the nodes of m its outputs reach positions, in order, and
// returns the positions by Node.Index(). Top-level inputs (args nil) are
// feeds; in a block, inner input k is args[k], the block node's k-th
// parent, and the block node is its inner output. A node trains only if
// every block around it does (trainable).
func (p *Program) splice(m *Model, args []int32, trainable bool) []int32 {
	pos := make([]int32, len(m.nodes))
	k := 0
	for i, keep := range m.MarkReachable(nil) {
		n := m.nodes[i]
		pos[i] = -1
		switch {
		case n.IsInput() && args != nil:
			pos[i], k = args[k], k+1
		case !keep:
		case n.IsInput():
			p.inputs = append(p.inputs, n)
			pos[i] = p.add(n, nil, nil, pos, Held)
		default:
			if b, ok := n.Layer.(Block); ok {
				args := make([]int32, len(n.Parents))
				for j, q := range n.Parents {
					args[j] = pos[q.index]
				}
				inner := b.Inner()
				pos[i] = p.splice(inner, args, trainable && n.Trainable)[inner.Outputs[0].index]
				continue
			}
			kern, ok := n.Layer.(Kernel)
			if !ok {
				panic(fmt.Sprintf("graph: node %q: layer %q neither runs (Kernel) nor splices (Block)", n.Name, n.Layer.Type()))
			}
			params := n.Layer.Params()
			f := Held | Computed
			if trainable && n.Trainable && len(params) > 0 { // !n.Frozen(), params read once
				f |= Seeds
			}
			if r, ok := kern.(BackwardReader); ok {
				ins, out := r.BackwardReads()
				if !ins {
					f |= SkipsInputs
				}
				if !out {
					f |= SkipsOutput
				}
			}
			pos[i] = p.add(n, kern, params, pos, f)
		}
	}
	return pos
}

// spliced bounds the positions Compile gives m: its nodes and, for each
// block, its inner model's.
func spliced(m *Model) int {
	n := len(m.nodes)
	for _, node := range m.nodes {
		if b, ok := node.Layer.(Block); ok {
			n += spliced(b.Inner())
		}
	}
	return n
}

// add appends a position running n's layer as kern (nil for a feed) with
// its params, the positions of n's parents in pos (by Node.Index() of n's
// model).
func (p *Program) add(n *Node, kern Kernel, params []*Param, pos []int32, flags uint8) int32 {
	i := int32(len(p.nodes))
	p.nodes, p.kerns, p.flags = append(p.nodes, n), append(p.kerns, kern), append(p.flags, flags)
	for _, q := range n.Parents {
		p.par = append(p.par, pos[q.index])
	}
	p.parOff = append(p.parOff, int32(len(p.par)))
	for _, q := range params {
		k := slices.Index(p.params, q)
		if k < 0 {
			k, p.params = len(p.params), append(p.params, q)
		}
		p.paramOf = append(p.paramOf, int32(k))
	}
	p.paramOff = append(p.paramOff, int32(len(p.paramOf)))
	return i
}

// retireAt is the step after which a tape retires step s's tensor.
func (p *Program) retireAt(s int) int32 { return p.live.LastUse[s] }

// Inputs returns the reachable input nodes: the order Run takes feeds in.
// The slice must not be modified.
func (p *Program) Inputs() []*Node { return p.inputs }

// Params returns the distinct parameters of the computed nodes, in the
// order Tape.ParamGradAt takes. The slice must not be modified.
func (p *Program) Params() []*Param { return slices.Clip(p.params) }

// position returns n's position, or −1 if n is not a reachable node of the
// program's model.
func (p *Program) position(n *Node) int32 {
	if n == nil || n.index >= len(p.pos) || p.model.nodes[n.index] != n {
		return -1
	}
	return p.pos[n.index]
}
