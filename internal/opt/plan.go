// Package opt implements Nautilus's optimizer (paper Section 4): optimal
// reuse-plan models via a polynomial-time min-cut reduction, the
// materialization optimization (Section 4.2) via both the faithful MILP
// formulation (Equations 8–10) and a scalable branch-and-bound search with
// exact min-cut sub-evaluation, the model fusion optimization (Section 4.3:
// one Fuser that searches a bucket's partitions exactly or, with
// enumeration off, is the paper's greedy Algorithm 1), the one builder
// every training group comes from (BuildGroup: merge the members and
// derive the merged graph's profile from theirs, plan by policy, estimate
// memory), the topological live-tensor peak-memory estimator (Section
// 4.3.3), and the theoretical speedup bound (Equation 11).
package opt

import (
	"fmt"
	"sort"
	"strings"

	"nautilus/internal/graph"
	"nautilus/internal/mincut"
	"nautilus/internal/profile"
)

// Action is the per-layer decision of a reuse plan (q(l, M^opt) in the
// paper): pruned, retained and computed, or retained and loaded from the
// materialized store.
type Action uint8

// Plan actions.
const (
	Pruned Action = iota
	Computed
	Loaded
)

func (a Action) String() string {
	switch a {
	case Pruned:
		return "pruned"
	case Computed:
		return "computed"
	case Loaded:
		return "loaded"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// Plan is an optimal reuse-plan model (Definition 4.5): an action per node
// of the underlying graph plus the resulting per-record training cost
// (Equation 5, in FLOPs-equivalents).
type Plan struct {
	Prof    *profile.ModelProfile
	Actions map[*graph.Node]Action
	// CostPerRecord is Σ computed·c_comp + loaded·c_load (Equation 5).
	CostPerRecord int64
}

// Model returns the plan's underlying graph.
func (p *Plan) Model() *graph.Model { return p.Prof.Model }

// CountActions returns how many nodes take each action.
func (p *Plan) CountActions() (pruned, computed, loaded int) {
	for _, a := range p.Actions {
		switch a {
		case Pruned:
			pruned++
		case Computed:
			computed++
		case Loaded:
			loaded++
		}
	}
	return
}

// LoadedNodes returns the nodes the plan loads from the materialized store,
// sorted by name for deterministic output.
func (p *Plan) LoadedNodes() []*graph.Node {
	var out []*graph.Node
	for n, a := range p.Actions {
		if a == Loaded && !n.IsInput() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ComputeFLOPsPerRecord sums c_comp over the plan's computed nodes — the
// per-record training compute the plan actually executes.
func (p *Plan) ComputeFLOPsPerRecord() int64 {
	var total int64
	for n, a := range p.Actions {
		if a == Computed {
			total += p.Prof.Layers[n].CompFLOPs
		}
	}
	return total
}

// ForwardFLOPsPerRecord sums raw forward FLOPs over computed nodes — the
// per-record cost of an inference/validation pass under the plan.
func (p *Plan) ForwardFLOPsPerRecord() int64 {
	var total int64
	for n, a := range p.Actions {
		if a == Computed {
			total += p.Prof.Layers[n].ForwardFLOPs
		}
	}
	return total
}

// LoadBytesPerRecord returns the bytes read from disk per training record
// under this plan (loaded intermediates only; dataset inputs excluded).
func (p *Plan) LoadBytesPerRecord() int64 {
	var total int64
	for n, a := range p.Actions {
		if a == Loaded && !n.IsInput() {
			total += p.Prof.Layers[n].OutBytes
		}
	}
	return total
}

// DatasetBytesPerRecord returns the bytes of raw dataset input the plan
// reads per record (input nodes retained as loaded).
func (p *Plan) DatasetBytesPerRecord() int64 {
	var total int64
	for n, a := range p.Actions {
		if a == Loaded && n.IsInput() {
			total += p.Prof.Layers[n].OutBytes
		}
	}
	return total
}

// String renders a compact plan summary.
func (p *Plan) String() string {
	pr, c, l := p.CountActions()
	var b strings.Builder
	fmt.Fprintf(&b, "plan(%s): %d computed, %d loaded, %d pruned, cost/record %d FLOPs",
		p.Model().Name, c, l, pr, p.CostPerRecord)
	return b.String()
}

// CurrentPracticePlan returns the no-reuse plan: every node computed, only
// dataset inputs loaded — what the Current Practice baseline executes.
func CurrentPracticePlan(prof *profile.ModelProfile) *Plan {
	p := &Plan{Prof: prof, Actions: map[*graph.Node]Action{}}
	for _, n := range prof.Model.Reachable() {
		if n.IsInput() {
			p.Actions[n] = Loaded
			p.CostPerRecord += prof.Layers[n].LoadFLOPs
		} else {
			p.Actions[n] = Computed
			p.CostPerRecord += prof.Layers[n].CompFLOPs
		}
	}
	return p
}

// ForcedLoadPlan builds the MAT-ALL baseline's plan: every materialized
// output at the materializable frontier is loaded unconditionally —
// "irrespective of whether it is efficient to compute them rather than
// loading them" (Section 5.1) — and everything beneath it is pruned.
func ForcedLoadPlan(prof *profile.ModelProfile) *Plan {
	m := prof.Model
	mat := m.Materializable()
	plan := &Plan{Prof: prof, Actions: map[*graph.Node]Action{}}
	for _, n := range m.Reachable() {
		plan.Actions[n] = Pruned
	}
	var visit func(n *graph.Node)
	visit = func(n *graph.Node) {
		if a := plan.Actions[n]; a != Pruned {
			return
		}
		if mat[n] {
			plan.Actions[n] = Loaded
			plan.CostPerRecord += prof.Layers[n].LoadFLOPs
			return
		}
		plan.Actions[n] = Computed
		plan.CostPerRecord += prof.Layers[n].CompFLOPs
		for _, p := range n.Parents {
			visit(p)
		}
	}
	for _, o := range m.Outputs {
		visit(o)
	}
	return plan
}

// SolveReusePlan finds the optimal reuse plan (Definition 4.5) for the
// profiled model given the set of loadable intermediates, identified by
// expression signature. Dataset inputs are always loadable. The solve is
// the polynomial-time min-cut reduction of Section 4.3.2; optimality is
// exact.
func SolveReusePlan(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool) (*Plan, error) {
	m := prof.Model
	nodes := m.Reachable()

	// Variable layout: present var per node; separate computed var only
	// for loadable non-input nodes (non-loadable nodes merge the two).
	presentVar := map[*graph.Node]int{}
	computedVar := map[*graph.Node]int{}
	nv := 0
	loadable := func(n *graph.Node) bool {
		return n.IsInput() || loadableSigs[prof.Sigs[n]]
	}
	for _, n := range nodes {
		presentVar[n] = nv
		nv++
		if !n.IsInput() {
			if loadable(n) {
				computedVar[n] = nv
				nv++
			} else {
				computedVar[n] = presentVar[n] // merged
			}
		}
	}

	e := mincut.NewEnergy(nv)
	for _, n := range nodes {
		lp := prof.Layers[n]
		switch {
		case n.IsInput():
			e.AddUnary(presentVar[n], 0, lp.LoadFLOPs)
		case loadable(n):
			e.AddUnary(presentVar[n], 0, lp.LoadFLOPs)
			e.AddUnary(computedVar[n], 0, lp.CompFLOPs-lp.LoadFLOPs)
			e.AddImplication(computedVar[n], presentVar[n])
		default:
			e.AddUnary(presentVar[n], 0, lp.CompFLOPs)
		}
		if !n.IsInput() {
			for _, par := range n.Parents {
				e.AddImplication(computedVar[n], presentVar[par])
			}
		}
	}
	for _, o := range m.Outputs {
		e.AddUnary(presentVar[o], mincut.Inf, 0) // outputs must be present
	}

	labels, cost, err := e.Solve()
	if err != nil {
		return nil, fmt.Errorf("opt: reuse plan for %q: %w", m.Name, err)
	}
	plan := &Plan{Prof: prof, Actions: map[*graph.Node]Action{}, CostPerRecord: cost}
	for _, n := range nodes {
		present := labels[presentVar[n]]
		switch {
		case !present:
			plan.Actions[n] = Pruned
		case n.IsInput():
			plan.Actions[n] = Loaded
		case labels[computedVar[n]]:
			plan.Actions[n] = Computed
		default:
			plan.Actions[n] = Loaded
		}
	}
	return plan, nil
}

// BuildPlanModel materializes a plan as an executable model: computed nodes
// keep their layer instances, loaded nodes become feed inputs keyed by
// their expression signature, pruned nodes vanish. Training the result is
// logically equivalent to training the original model (Section 4.2.1).
//
// The returned map gives the feed key (materialized-store key) for every
// feed input node name.
func BuildPlanModel(plan *Plan) (*graph.Model, map[string]graph.Signature, error) {
	src := plan.Model()
	out := graph.NewModel(src.Name + "/plan")
	mapped := map[*graph.Node]*graph.Node{}
	feeds := map[string]graph.Signature{}

	for _, n := range src.Reachable() {
		switch plan.Actions[n] {
		case Pruned:
			continue
		case Loaded:
			if n.IsInput() {
				nn := out.AddNode(n.Name, n.Layer)
				mapped[n] = nn
				continue
			}
			sig := plan.Prof.Sigs[n]
			name := "feed_" + n.Name
			nn := out.AddNode(name, graph.NewFeed(sig.String(), plan.Prof.Shapes[n]...))
			mapped[n] = nn
			feeds[name] = sig
		case Computed:
			parents := make([]*graph.Node, len(n.Parents))
			for i, p := range n.Parents {
				parents[i] = mapped[p]
				if parents[i] == nil {
					return nil, nil, fmt.Errorf("opt: plan computes %q but its parent %q is pruned", n.Name, p.Name)
				}
			}
			nn := out.AddNode(n.Name, n.Layer, parents...)
			nn.Trainable = n.Trainable
			mapped[n] = nn
		}
	}
	var outs []*graph.Node
	for _, o := range src.Outputs {
		nn := mapped[o]
		if nn == nil {
			return nil, nil, fmt.Errorf("opt: plan pruned output %q", o.Name)
		}
		outs = append(outs, nn)
	}
	out.SetOutputs(outs...)
	if _, err := out.Validate(); err != nil {
		return nil, nil, fmt.Errorf("opt: plan model invalid: %w", err)
	}
	return out, feeds, nil
}
