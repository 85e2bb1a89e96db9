package graph

import "slices"

// Node flags for Liveness.Build, by node in topological order.
const (
	// Held: the step holds the node's tensor (the node is retained).
	Held uint8 = 1 << iota
	// Computed: the node runs its layer; a held node that is not computed
	// is fed (a dataset input or a loaded intermediate).
	Computed
	// Seeds: gradient starts at the node — it trains, or it is an input
	// whose gradient the caller asks for.
	Seeds
	// SkipsInputs, SkipsOutput: the node's backward step reads not its
	// inputs / not its own output (its layer says so, BackwardReader).
	// Without them a backward reads both, the paper's rule, which the
	// planner's estimate keeps: it never sets them.
	SkipsInputs
	SkipsOutput
)

// Liveness is the live-tensor table of one training step: the topological
// order of the paper's Figure 5 augmented graph and, for every tensor of
// it, the last step that reads it (Section 4.3.3). The planner's peak
// memory estimate (opt.EstimatePeakMemory) and the executor (Program,
// Tape) both read it, so the memory the planner admits a group by and the
// memory the tape holds follow one definition of liveness.
//
// The steps are: the held nodes' forward steps in node order (0..F-1), the
// loss (F), then one backward step per computed node gradient flows into,
// in reverse node order. Every step makes one tensor, identified by the
// step. The slices are the caller's scratch: Build reuses them.
type Liveness struct {
	Fwd, Bwd []int32 // by node: its forward / backward step, −1 if none
	NeedGrad []bool  // by node: gradient flows into it
	LastUse  []int32 // by step: the last step reading its tensor
	F        int32   // forward steps; F is the loss step
}

// Build derives the table for the nodes of one graph in topological order.
// Node i's parents are par[parOff[i]:parOff[i+1]], flags[i] its Held,
// Computed and Seeds bits; outs are the nodes the loss reads.
func (lv *Liveness) Build(parOff, par []int32, flags []uint8, outs []int32) {
	n := len(flags)
	lv.Fwd, lv.Bwd = grow(lv.Fwd, n), grow(lv.Bwd, n)
	lv.NeedGrad = grow(lv.NeedGrad, n)
	parents := func(i int) []int32 { return par[parOff[i]:parOff[i+1]] }
	lv.F = 0
	for i, f := range flags {
		lv.Fwd[i], lv.Bwd[i], lv.NeedGrad[i] = -1, -1, false
		if f&Held == 0 {
			continue
		}
		lv.Fwd[i] = lv.F
		lv.F++
		// Gradient flows into the node if it seeds one or a parent takes one;
		// a computed node it flows into has a backward step.
		need := f&Seeds != 0
		for _, p := range parents(i) {
			need = need || lv.NeedGrad[p]
		}
		lv.NeedGrad[i] = need
		if need && f&Computed != 0 {
			lv.Bwd[i] = 0 // positioned below
		}
	}
	steps := lv.F + 1
	for i := n - 1; i >= 0; i-- {
		if lv.Bwd[i] == 0 {
			lv.Bwd[i] = steps
			steps++
		}
	}

	lv.LastUse = grow(lv.LastUse, int(steps))
	for s := range lv.LastUse {
		lv.LastUse[s] = int32(s)
	}
	use := func(tensor, at int32) {
		if at > lv.LastUse[tensor] {
			lv.LastUse[tensor] = at
		}
	}
	for _, o := range outs {
		if f := lv.Fwd[o]; f >= 0 {
			use(f, lv.F) // output → loss
		}
	}
	for i, fl := range flags {
		f, b := lv.Fwd[i], lv.Bwd[i]
		if f < 0 || fl&Computed == 0 {
			continue
		}
		if b >= 0 && fl&SkipsOutput == 0 {
			use(f, b) // (l_i, l'_i): backward reads the forward output
		}
		for _, p := range parents(i) {
			pf := lv.Fwd[p]
			if pf < 0 {
				continue // an illegal plan: no tensor to hold
			}
			use(pf, f) // the child's forward reads the parent's output
			if b >= 0 {
				if fl&SkipsInputs == 0 {
					use(pf, b) // (l_p, l'_i): backward reads the forward inputs
				}
				if pb := lv.Bwd[p]; pb >= 0 {
					use(b, pb) // (l'_i, l'_p): the child's gradient feeds the parent's backward
				}
			}
		}
	}
	// The loss step's edges into backward steps are not tracked: its tensor
	// is a scalar (size 0), however long it lives.
}

// Steps returns the number of steps of the table.
func (lv *Liveness) Steps() int { return len(lv.LastUse) }

// PeakLive sweeps a step table: step s's tensor of size[s] is allocated at
// s and freed after lastUse[s]; the result is the high-water mark of the
// live sum. release is scratch at least as long as size.
func PeakLive(size []int64, lastUse []int32, release []int64) int64 {
	release = release[:len(size)]
	clear(release)
	for s, last := range lastUse {
		release[last] += size[s]
	}
	var live, peak int64
	for s := range size {
		live += size[s]
		peak = max(peak, live)
		live -= release[s]
	}
	return peak
}

// grow returns s at length n, contents unspecified, reusing its array.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
