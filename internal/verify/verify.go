// Package verify statically checks optimizer outputs before anything is
// executed or written to storage. The optimizer (internal/opt) produces
// reuse plans, fusion groups, and materialization sets whose legality rests
// on paper invariants — Definition 2.4 (materializable frontier),
// Definition 4.3 (shared frozen sub-expressions), Definition 4.5 (reuse
// plans), and the B_disk / B_mem budgets. Solver bugs that violate them
// would otherwise surface as silent wrong training results or storage blow-
// ups deep inside execution; this package turns them into typed PlanErrors
// at planning time. core.PlanWorkload (and through it every Fit cycle)
// runs these checks on every group of each plan it emits.
package verify

import (
	"slices"
	"sort"

	"nautilus/internal/graph"
	"nautilus/internal/opt"
)

// Model checks DAG well-formedness of a model: it must be acyclic, pass
// structural validation with consistent shapes end to end, and have a
// materializable set that is frozen-prefix-closed per Definition 2.4 (a
// materializable node is an input, or frozen with every parent
// materializable).
func Model(m *graph.Model) error {
	if m == nil {
		return planErrf(KindModel, "verify: nil model")
	}
	if err := acyclic(m); err != nil {
		return err
	}
	if err := validateShapes(m); err != nil {
		return err
	}
	mat := m.Materializable()
	for _, n := range m.Nodes() {
		if !mat[n.Index()] {
			continue
		}
		if n.IsInput() {
			continue
		}
		if !n.Frozen() {
			return planErrf(KindModel, "verify: model %q: node %q marked materializable but is trainable (Definition 2.4)", m.Name, n.Name).
				withModel(m.Name).withNode(n.Name)
		}
		for _, p := range n.Parents {
			if !mat[p.Index()] {
				return planErrf(KindModel, "verify: model %q: node %q marked materializable but parent %q is not (Definition 2.4)", m.Name, n.Name, p.Name).
					withModel(m.Name).withNode(n.Name)
			}
		}
	}
	return nil
}

// acyclic runs a three-color DFS over the Parents edges of every node.
func acyclic(m *graph.Model) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[*graph.Node]int{}
	var visit func(n *graph.Node) error
	visit = func(n *graph.Node) error {
		switch color[n] {
		case gray:
			return planErrf(KindModel, "verify: model %q: cycle through node %q", m.Name, n.Name).
				withModel(m.Name).withNode(n.Name)
		case black:
			return nil
		}
		color[n] = gray
		for _, p := range n.Parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range m.Nodes() {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// validateShapes runs Model.Validate, converting its shape-inference panics
// into errors.
func validateShapes(m *graph.Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = planErrf(KindModel, "verify: model %q: %v", m.Name, r).withModel(m.Name)
		}
	}()
	if _, verr := m.Validate(); verr != nil {
		err = planErrf(KindModel, "verify: model %q: %v", m.Name, verr).withModel(m.Name)
		err.(*PlanError).Err = verr
	}
	return err
}

// Plan checks a reuse plan (Definition 4.5) against its model. loadable is
// the materialized set V the plan was solved under, indexed by expression
// signature; pass nil to skip the membership check (baselines that load
// the full materializable frontier).
//
// Invariants: the plan has an action for every node; no output is pruned;
// every computed node's parents are retained (loaded or computed); every
// loaded non-input node is materializable per Definition 2.4 and, when
// loadable is given, a member of V; and CostPerRecord equals the
// recomputed Σ computed·c_comp + loaded·c_load of Equation 5.
func Plan(p *opt.Plan, loadable map[graph.Signature]bool) error {
	if p == nil {
		return planErrf(KindLegality, "verify: nil plan")
	}
	m := p.Model()
	if err := Model(m); err != nil {
		return err
	}
	if len(p.Actions) != m.NumNodes() || len(p.Prof.Layers) != m.NumNodes() {
		return planErrf(KindLegality, "verify: plan(%s): %d actions and %d layer profiles for %d nodes", m.Name, len(p.Actions), len(p.Prof.Layers), m.NumNodes()).
			withModel(m.Name)
	}
	mat := m.Materializable()
	var cost int64
	for _, n := range m.Reachable() {
		a := p.Action(n)
		switch a {
		case opt.Pruned:
			// Legality is judged from the consumers' side below.
		case opt.Computed:
			if n.IsInput() {
				return planErrf(KindLegality, "verify: plan(%s): input %q marked computed", m.Name, n.Name).
					withModel(m.Name).withNode(n.Name)
			}
			cost += p.Prof.Layer(n).CompFLOPs
			for _, par := range n.Parents {
				if p.Action(par) == opt.Pruned {
					return planErrf(KindLegality, "verify: plan(%s): node %q is computed but its input %q is pruned", m.Name, n.Name, par.Name).
						withModel(m.Name).withNode(n.Name)
				}
			}
		case opt.Loaded:
			cost += p.Prof.Layer(n).LoadFLOPs
			if n.IsInput() {
				continue // dataset inputs are always loadable
			}
			if !mat[n.Index()] {
				return planErrf(KindLegality, "verify: plan(%s): node %q is loaded but not materializable (Definition 2.4)", m.Name, n.Name).
					withModel(m.Name).withNode(n.Name)
			}
			if loadable != nil && !loadable[p.Prof.Sig(n)] {
				return planErrf(KindLegality, "verify: plan(%s): node %q (sig %s) is loaded but not in the materialized set V", m.Name, n.Name, p.Prof.Sig(n)).
					withModel(m.Name).withNode(n.Name)
			}
		default:
			return planErrf(KindLegality, "verify: plan(%s): node %q has unknown action %v", m.Name, n.Name, a).
				withModel(m.Name).withNode(n.Name)
		}
	}
	for _, o := range m.Outputs {
		if p.Action(o) == opt.Pruned {
			return planErrf(KindLegality, "verify: plan(%s): output %q is pruned", m.Name, o.Name).
				withModel(m.Name).withNode(o.Name)
		}
	}
	if cost != p.CostPerRecord {
		return planErrf(KindCost, "verify: plan(%s): CostPerRecord %d does not match recomputed cost %d (Equation 5)", m.Name, p.CostPerRecord, cost).
			withModel(m.Name)
	}
	return nil
}

// Group checks one fusion group: non-empty, uniform batch size and epoch
// count across its items (fused branches train on shared mini-batches in
// one loop), a legal reuse plan over the merged graph, merged shared nodes
// confined to the materializable frontier (Definition 4.3: only shared
// frozen sub-expressions fuse), and — when both the estimate and the
// budget are known — peak memory within B_mem.
func Group(g *opt.FusedGroup, memBudgetBytes int64, loadable map[graph.Signature]bool) error {
	if g == nil {
		return planErrf(KindFusion, "verify: nil fusion group")
	}
	if len(g.Items) == 0 {
		return planErrf(KindFusion, "verify: fusion group has no items")
	}
	name := g.Items[0].Model.Name
	batch, epochs := g.Items[0].BatchSize, g.Items[0].Epochs
	for _, it := range g.Items[1:] {
		if it.BatchSize != batch {
			return planErrf(KindFusion, "verify: group(%s): mixed batch sizes %d and %d (item %q)", name, batch, it.BatchSize, it.Model.Name).
				withGroup(name).withModel(it.Model.Name)
		}
		if it.Epochs != epochs {
			return planErrf(KindFusion, "verify: group(%s): mixed epoch counts %d and %d (item %q)", name, epochs, it.Epochs, it.Model.Name).
				withGroup(name).withModel(it.Model.Name)
		}
	}
	if g.MM == nil {
		return planErrf(KindFusion, "verify: group(%s): missing merged graph", name).withGroup(name)
	}
	for _, it := range g.Items {
		if !slices.Contains(g.MM.Models, it.Model) {
			return planErrf(KindFusion, "verify: group(%s): item %q is not part of the merged graph", name, it.Model.Name).
				withGroup(name).withModel(it.Model.Name)
		}
	}
	if err := Plan(g.Plan, loadable); err != nil {
		return wrapGroup(name, err)
	}
	mat := g.MM.Graph.Materializable()
	for _, n := range g.MM.Graph.Nodes() {
		if g.MM.SharedCount(n) > 1 && !mat[n.Index()] && !n.IsInput() {
			return planErrf(KindFusion, "verify: group(%s): merged node %q is shared by %d models but not materializable (Definition 4.3)", name, n.Name, g.MM.SharedCount(n)).
				withGroup(name).withNode(n.Name)
		}
	}
	// B_mem constrains fusion decisions (Algorithm 1); a singleton group is
	// the unfused baseline and stands even if it alone exceeds the budget.
	if len(g.Items) > 1 && memBudgetBytes > 0 && g.PeakMemBytes > memBudgetBytes {
		return planErrf(KindBudget, "verify: group(%s): estimated peak memory %d exceeds B_mem %d", name, g.PeakMemBytes, memBudgetBytes).
			withGroup(name)
	}
	return nil
}

// Groups checks a full training plan: every group legal and the groups a
// partition of the workload — each work item trained exactly once.
func Groups(groups []*opt.FusedGroup, items []opt.WorkItem, memBudgetBytes int64, loadable map[graph.Signature]bool) error {
	for _, g := range groups {
		if err := Group(g, memBudgetBytes, loadable); err != nil {
			return err
		}
	}
	return partition(groups, items)
}

// partition checks that the groups train each work item exactly once.
func partition(groups []*opt.FusedGroup, items []opt.WorkItem) error {
	seen := map[*graph.Model]int{}
	for _, g := range groups {
		for _, it := range g.Items {
			seen[it.Model]++
		}
	}
	var missing, dup []string
	for _, it := range items {
		switch seen[it.Model] {
		case 0:
			missing = append(missing, it.Model.Name)
		case 1:
		default:
			dup = append(dup, it.Model.Name)
		}
	}
	sort.Strings(missing)
	sort.Strings(dup)
	if len(missing) > 0 {
		return planErrf(KindPartition, "verify: plan trains no group for model(s) %v", missing)
	}
	if len(dup) > 0 {
		return planErrf(KindPartition, "verify: plan trains model(s) %v more than once", dup)
	}
	return nil
}

// MatResult checks the materialization optimizer's output: the chosen set
// and its signature index agree, the storage footprint is correctly summed
// and within B_disk, every work item has a reuse plan that is legal under
// the chosen set, and the reported total cost matches Equation 6.
func MatResult(res *opt.MatResult, items []opt.WorkItem, cfg opt.MatConfig) error {
	if res == nil {
		return planErrf(KindLegality, "verify: nil materialization result")
	}
	sigs := map[graph.Signature]bool{}
	var storage int64
	for _, c := range res.Materialized {
		if sigs[c.Sig] {
			return planErrf(KindLegality, "verify: materialized set lists sig %s twice", c.Sig).withNode(c.Node.Name)
		}
		sigs[c.Sig] = true
		if !res.Sigs[c.Sig] {
			return planErrf(KindLegality, "verify: materialized node %q (sig %s) missing from Sigs index", c.Node.Name, c.Sig).withNode(c.Node.Name)
		}
		storage += c.BytesPerRec * int64(cfg.MaxRecords)
	}
	for s := range res.Sigs {
		if res.Sigs[s] && !sigs[s] {
			return planErrf(KindLegality, "verify: Sigs index lists sig %s absent from the materialized set", s)
		}
	}
	if storage != res.StorageBytes {
		return planErrf(KindCost, "verify: StorageBytes %d does not match recomputed footprint %d", res.StorageBytes, storage)
	}
	if cfg.DiskBudgetBytes > 0 && storage > cfg.DiskBudgetBytes {
		return planErrf(KindBudget, "verify: storage footprint %d exceeds B_disk %d", storage, cfg.DiskBudgetBytes)
	}
	var total int64
	for _, it := range items {
		plan, ok := res.Plans[it.Model]
		if !ok {
			return planErrf(KindPartition, "verify: no reuse plan for model %q", it.Model.Name).withModel(it.Model.Name)
		}
		if err := Plan(plan, res.Sigs); err != nil {
			return err
		}
		total += plan.CostPerRecord * int64(cfg.MaxRecords) * int64(it.Epochs)
	}
	if total != res.TotalCostFLOPs {
		return planErrf(KindCost, "verify: TotalCostFLOPs %d does not match recomputed cost %d (Equation 6)", res.TotalCostFLOPs, total)
	}
	return nil
}
