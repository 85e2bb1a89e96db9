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
// Tables over one graph's nodes (actions, solver variables, replay positions)
// are slices by graph.Node.Index() on a reusable scratch (DESIGN.md).
package opt

import (
	"fmt"
	"slices"
	"sort"
	"sync"

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
	Prof *profile.ModelProfile
	// Actions[n.Index()] is node n's action; unreachable nodes are Pruned.
	Actions []Action
	// CostPerRecord is Σ computed·c_comp + loaded·c_load (Equation 5).
	CostPerRecord int64
}

// Model returns the plan's underlying graph.
func (p *Plan) Model() *graph.Model { return p.Prof.Model }

// Action returns the plan's decision for one node of its graph.
func (p *Plan) Action(n *graph.Node) Action { return p.Actions[n.Index()] }

// CountActions returns how many reachable nodes take each action.
func (p *Plan) CountActions() (pruned, computed, loaded int) {
	for _, n := range p.Model().Reachable() {
		switch p.Action(n) {
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
	for i, n := range p.Model().Nodes() {
		if p.Actions[i] == Loaded && !n.IsInput() {
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
	for i, a := range p.Actions {
		if a == Computed {
			total += p.Prof.Layers[i].CompFLOPs
		}
	}
	return total
}

// ForwardFLOPsPerRecord sums raw forward FLOPs over computed nodes — the
// per-record cost of an inference/validation pass under the plan.
func (p *Plan) ForwardFLOPsPerRecord() int64 {
	var total int64
	for i, a := range p.Actions {
		if a == Computed {
			total += p.Prof.Layers[i].ForwardFLOPs
		}
	}
	return total
}

// LoadBytesPerRecord returns the bytes read from disk per training record
// under this plan (loaded intermediates only; dataset inputs excluded).
func (p *Plan) LoadBytesPerRecord() int64 { return p.loadedBytes(false) }

// DatasetBytesPerRecord returns the bytes of raw dataset input the plan
// reads per record (input nodes retained as loaded).
func (p *Plan) DatasetBytesPerRecord() int64 { return p.loadedBytes(true) }

func (p *Plan) loadedBytes(inputs bool) int64 {
	var total int64
	for i, n := range p.Model().Nodes() {
		if p.Actions[i] == Loaded && n.IsInput() == inputs {
			total += p.Prof.Layers[i].OutBytes
		}
	}
	return total
}

// prunedInput returns a node the plan computes although it prunes one of
// its parents, and that parent; nils for a legal plan.
func (p *Plan) prunedInput() (n, parent *graph.Node) {
	for i, n := range p.Model().Nodes() {
		if p.Actions[i] != Computed {
			continue
		}
		for _, par := range n.Parents {
			if p.Actions[par.Index()] == Pruned {
				return n, par
			}
		}
	}
	return nil, nil
}

// newPlan returns a plan over prof's graph that prunes every node.
func newPlan(prof *profile.ModelProfile) *Plan {
	return &Plan{Prof: prof, Actions: make([]Action, prof.Model.NumNodes())}
}

// CurrentPracticePlan returns the no-reuse plan: every node computed, only
// dataset inputs loaded — what the Current Practice baseline executes.
func CurrentPracticePlan(prof *profile.ModelProfile) *Plan {
	p := newPlan(prof)
	for _, n := range prof.Model.Reachable() {
		if n.IsInput() {
			p.Actions[n.Index()] = Loaded
			p.CostPerRecord += prof.Layer(n).LoadFLOPs
		} else {
			p.Actions[n.Index()] = Computed
			p.CostPerRecord += prof.Layer(n).CompFLOPs
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
	plan := newPlan(prof)
	var visit func(n *graph.Node)
	visit = func(n *graph.Node) {
		i := n.Index()
		if plan.Actions[i] != Pruned {
			return
		}
		if mat[i] {
			plan.Actions[i] = Loaded
			plan.CostPerRecord += prof.Layers[i].LoadFLOPs
			return
		}
		plan.Actions[i] = Computed
		plan.CostPerRecord += prof.Layers[i].CompFLOPs
		for _, p := range n.Parents {
			visit(p)
		}
	}
	for _, o := range m.Outputs {
		visit(o)
	}
	return plan
}

// scratch is every buffer a reuse-plan solve and a peak-memory replay need,
// kept between calls so the planner's inner loop allocates nothing once
// warm. Slices are by Node.Index() unless noted; each call overwrites what
// it reads, so no result depends on what a scratch held before.
type scratch struct {
	energy            mincut.Energy
	reach, loadable   []bool
	present, computed []int32 // energy variables: node retained / computed (equal when it cannot be loaded)

	fpos, bpos      []int32 // position of the node's forward / backward step, −1 if none
	needGrad, isOut []bool
	seenParam       []bool  // by profile.ModelProfile.Param id
	size, release   []int64 // by step position
	lastUse         []int32 // by step position
}

// scratchPool lends one to each public entry point (MAT OPT: per search).
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s at length n, contents unspecified, reusing its array.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// SolveReusePlan finds the optimal reuse plan (Definition 4.5) for the
// profiled model given the set of loadable intermediates, identified by
// expression signature. Dataset inputs are always loadable. The solve is
// the polynomial-time min-cut reduction of Section 4.3.2; optimality is
// exact.
func SolveReusePlan(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool) (*Plan, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.solve(prof, loadableSigs)
}

func (sc *scratch) solve(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool) (*Plan, error) {
	sc.loadable = resize(sc.loadable, len(prof.Layers))
	for i := range prof.Layers {
		sc.loadable[i] = len(loadableSigs) > 0 && loadableSigs[prof.Layers[i].Sig]
	}
	sc.setEnergy(prof, sc.loadable)
	labels, cost, err := sc.energy.Solve()
	if err != nil {
		return nil, fmt.Errorf("opt: reuse plan for %q: %w", prof.Model.Name, err)
	}
	plan := newPlan(prof)
	plan.CostPerRecord = cost
	for i, n := range prof.Model.Nodes() {
		switch {
		case !sc.reach[i] || !labels[sc.present[i]]:
			// Pruned.
		case n.IsInput() || !labels[sc.computed[i]]:
			plan.Actions[i] = Loaded
		default:
			plan.Actions[i] = Computed
		}
	}
	return plan, nil
}

// planCost is the optimal plan's CostPerRecord alone: no labels, no Plan.
func (sc *scratch) planCost(prof *profile.ModelProfile, loadable []bool) (int64, error) {
	sc.setEnergy(prof, loadable)
	cost, err := sc.energy.Min()
	if err != nil {
		return 0, fmt.Errorf("opt: reuse plan for %q: %w", prof.Model.Name, err)
	}
	return cost, nil
}

// setEnergy states prof's reuse-plan problem as sc.energy. loadable says, by
// node index, which non-input nodes may be loaded. A reachable node gets a
// present variable, and a separate computed one only if it is a loadable
// non-input; the variables left over cost nothing and touch no term.
func (sc *scratch) setEnergy(prof *profile.ModelProfile, loadable []bool) {
	m := prof.Model
	nodes := m.Nodes()
	sc.reach = m.MarkReachable(sc.reach)
	sc.present, sc.computed = resize(sc.present, len(nodes)), resize(sc.computed, len(nodes))
	e := &sc.energy
	e.Reset(2 * len(nodes))
	nv := 0
	for i, n := range nodes {
		if !sc.reach[i] {
			continue
		}
		lp := &prof.Layers[i]
		pv, cv := nv, nv
		nv++
		switch {
		case n.IsInput():
			e.AddUnary(pv, 0, lp.LoadFLOPs)
		case loadable[i]:
			cv = nv
			nv++
			e.AddUnary(pv, 0, lp.LoadFLOPs)
			e.AddUnary(cv, 0, lp.CompFLOPs-lp.LoadFLOPs)
			e.AddImplication(cv, pv)
		default:
			e.AddUnary(pv, 0, lp.CompFLOPs)
		}
		sc.present[i], sc.computed[i] = int32(pv), int32(cv)
		if !n.IsInput() {
			for _, par := range n.Parents {
				e.AddImplication(cv, int(sc.present[par.Index()]))
			}
		}
	}
	for _, o := range m.Outputs {
		e.AddUnary(int(sc.present[o.Index()]), mincut.Inf, 0) // outputs must be present
	}
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
	mapped := make([]*graph.Node, src.NumNodes()) // by source Node.Index()
	feeds := map[string]graph.Signature{}

	for _, n := range src.Reachable() {
		switch plan.Action(n) {
		case Pruned:
			continue
		case Loaded:
			if n.IsInput() {
				mapped[n.Index()] = out.AddNode(n.Name, n.Layer)
				continue
			}
			sig := plan.Prof.Sig(n)
			name := "feed_" + n.Name
			mapped[n.Index()] = out.AddNode(name, graph.NewFeed(sig.String(), plan.Prof.Layer(n).OutShape...))
			feeds[name] = sig
		case Computed:
			parents := make([]*graph.Node, len(n.Parents))
			for i, p := range n.Parents {
				parents[i] = mapped[p.Index()]
				if parents[i] == nil {
					return nil, nil, fmt.Errorf("opt: plan computes %q but its parent %q is pruned", n.Name, p.Name)
				}
			}
			nn := out.AddNode(n.Name, n.Layer, parents...)
			nn.Trainable = n.Trainable
			mapped[n.Index()] = nn
		}
	}
	var outs []*graph.Node
	for _, o := range src.Outputs {
		nn := mapped[o.Index()]
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
