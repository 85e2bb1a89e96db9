// Package opt implements Nautilus's optimizer (paper Section 4): optimal
// reuse-plan models via a polynomial-time min-cut reduction, the
// materialization optimization (Section 4.2) via a branch-and-bound search
// with exact min-cut sub-evaluation, the model fusion optimization
// (Section 4.3: the paper's greedy Algorithm 1), the one builder
// every training group comes from (BuildGroup: merge the members and
// derive the merged graph's profile from theirs, plan by policy, estimate
// memory), the topological live-tensor peak-memory estimator (Section
// 4.3.3), and the theoretical speedup bound (Equation 11). The exact
// oracles both optimizations are tested against — the joint MILP
// (SolveMILP) and the partition search (FuseEnum) — live in the test
// files.
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

// CurrentPracticePlan returns the no-reuse plan: every node computed, only
// dataset inputs loaded — what the Current Practice baseline executes.
func CurrentPracticePlan(prof *profile.ModelProfile) *Plan {
	plan, _ := planOf(prof, nil, UnmodifiedPlan) // only ReusePlan can fail
	return plan
}

// scratch is every buffer a plan choice, a peak-memory replay and a merged
// view need, kept so the planner's inner loop allocates nothing once warm.
// Slices are by view node unless noted; each call overwrites what it reads.
type scratch struct {
	energy            mincut.Energy
	reach, loadable   []bool
	present, computed []int32 // energy variables: node retained / computed (equal when it cannot be loaded)

	live          graph.Liveness // peakMemory's step table
	flags         []uint8        // by node: peakMemory's graph.Liveness flags
	seenParam     []bool         // by the view's parameter key
	size, release []int64        // by step position

	view   view    // what the public entry points and FUSE OPT's trials price
	first  []int32 // merge: by expression number, 1 + the view node holding it
	nodeOf []int32 // merge: by node of the member being added, its view node
}

// scratchPool lends one to each public entry point (MAT OPT: per search;
// FUSE OPT: per Fuse call).
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns s at length n, contents unspecified, reusing its array.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// SolveReusePlan finds the optimal reuse plan (Definition 4.5) for the
// profiled model given the set of loadable intermediates, identified by
// expression signature. Dataset inputs are always loadable. The solve is
// the polynomial-time min-cut reduction of Section 4.3.2; optimality is
// exact.
func SolveReusePlan(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool) (*Plan, error) {
	return planOf(prof, loadableSigs, ReusePlan)
}

// planOf is the policy's plan over prof's own graph.
func planOf(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool, policy PlanPolicy) (*Plan, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	actions, cost, err := sc.plan(sc.view.wrap(prof), loadableSigs, policy)
	if err != nil {
		return nil, err
	}
	return &Plan{Prof: prof, Actions: actions, CostPerRecord: cost}, nil
}

// plan chooses v's plan by policy: an action per view node, and the cost.
// Current Practice computes every node the outputs reach; MAT-ALL stops at
// the materializable frontier and loads it, whatever it costs (Section 5.1).
func (sc *scratch) plan(v *view, loadableSigs map[graph.Signature]bool, policy PlanPolicy) ([]Action, int64, error) {
	switch policy {
	case ReusePlan:
		return sc.solve(v, loadableSigs)
	case UnmodifiedPlan, LoadFrontierPlan:
	default:
		return nil, 0, fmt.Errorf("opt: unknown plan policy %d", policy)
	}
	actions, need := make([]Action, len(v.layer)), make([]bool, len(v.layer))
	var cost int64
	for _, o := range v.outs {
		need[o] = true
	}
	for i := len(need) - 1; i >= 0; i-- {
		if !need[i] {
			continue
		}
		if lp := v.layer[i]; lp.Node.IsInput() || policy == LoadFrontierPlan && lp.Materializable {
			actions[i] = Loaded
			cost += v.load(i)
			continue
		}
		actions[i] = Computed
		cost += v.layer[i].CompFLOPs
		for _, p := range v.parents(i) {
			need[p] = true
		}
	}
	return actions, cost, nil
}

// solve finds v's optimal reuse plan given V.
func (sc *scratch) solve(v *view, loadableSigs map[graph.Signature]bool) ([]Action, int64, error) {
	sc.loadable = resize(sc.loadable, len(v.layer))
	for i, lp := range v.layer {
		sc.loadable[i] = len(loadableSigs) > 0 && loadableSigs[lp.Sig]
	}
	sc.setEnergy(v, sc.loadable)
	labels, cost, err := sc.energy.Solve()
	if err != nil {
		return nil, 0, fmt.Errorf("opt: reuse plan for %q: %w", v.profs[0].Model.Name, err)
	}
	actions := make([]Action, len(v.layer))
	for i, lp := range v.layer {
		switch {
		case !sc.reach[i] || !labels[sc.present[i]]:
			// Pruned.
		case lp.Node.IsInput() || !labels[sc.computed[i]]:
			actions[i] = Loaded
		default:
			actions[i] = Computed
		}
	}
	return actions, cost, nil
}

// planCost is the optimal plan's CostPerRecord alone: no labels, no Plan.
func (sc *scratch) planCost(v *view, loadable []bool) (int64, error) {
	sc.setEnergy(v, loadable)
	cost, err := sc.energy.Min()
	if err != nil {
		return 0, fmt.Errorf("opt: reuse plan for %q: %w", v.profs[0].Model.Name, err)
	}
	return cost, nil
}

// setEnergy states v's reuse-plan problem as sc.energy. loadable says, by
// view node, which non-input nodes may be loaded. A reachable node gets a
// present variable, and a separate computed one only if it is a loadable
// non-input; the variables left over cost nothing and touch no term.
func (sc *scratch) setEnergy(v *view, loadable []bool) {
	n := len(v.layer)
	sc.reach = v.markReachable(sc.reach)
	sc.present, sc.computed = resize(sc.present, n), resize(sc.computed, n)
	e := &sc.energy
	e.Reset(2 * n)
	nv := 0
	for i, lp := range v.layer {
		if !sc.reach[i] {
			continue
		}
		pv, cv := nv, nv
		nv++
		input := lp.Node.IsInput()
		switch {
		case input:
			e.AddUnary(pv, 0, v.load(i))
		case loadable[i]:
			cv = nv
			nv++
			load := v.load(i)
			e.AddUnary(pv, 0, load)
			e.AddUnary(cv, 0, lp.CompFLOPs-load)
			e.AddImplication(cv, pv)
		default:
			e.AddUnary(pv, 0, lp.CompFLOPs)
		}
		sc.present[i], sc.computed[i] = int32(pv), int32(cv)
		if !input {
			for _, par := range v.parents(i) {
				e.AddImplication(cv, int(sc.present[par]))
			}
		}
	}
	for _, o := range v.outs {
		e.AddUnary(int(sc.present[o]), mincut.Inf, 0) // outputs must be present
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
