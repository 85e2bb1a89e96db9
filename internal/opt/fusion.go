package opt

import (
	"fmt"
	"sort"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/profile"
)

// Fusion strategy names accepted by NewFuser (and core.Config.Fuser).
const (
	// FuserGreedy is the paper's Algorithm 1: greedy best-pair merging.
	FuserGreedy = "greedy"
	// FuserEnum is the cost-based partition enumeration (SystemML-style):
	// a memoized DP over subset partitions per compatibility bucket.
	FuserEnum = "enum"
)

// FuseConfig configures the model fusion optimization.
type FuseConfig struct {
	// MemBudgetBytes is B_mem, the runtime memory budget a fused model's
	// estimated peak must not exceed.
	MemBudgetBytes int64
	// OptimizerSlotBytes is the optimizer state overhead per trainable
	// parameter byte (2 for Adam).
	OptimizerSlotBytes int64
	// Stats, when set, receives the search counters.
	Stats *FuseStats
}

// FuseStats counts the work of one Fuse run: the Algorithm 1 counters for
// every bucket solved greedily, the partition-search counters for every
// bucket enumerated.
type FuseStats struct {
	// Strategy is the Fuser.Name() that produced these stats.
	Strategy string
	// Rounds is the number of greedy iterations that merged a pair.
	Rounds int
	// PairsEvaluated counts the trial groups priced — on a merged view of
	// the members' profiles: reuse-plan solve and memory estimate, no graph
	// built — greedy pairs and enumerated subset candidates alike. Cached
	// trials don't recount. Only the groups Fuse returns become graphs.
	PairsEvaluated int
	// PairsRejected counts greedy pairs dismissed for non-positive gain
	// or a B_mem violation.
	PairsRejected int
	// StatesExplored counts partition-DP subproblems solved while
	// enumerating (memoized states are not recounted).
	StatesExplored int
	// MemoHits counts candidate-group lookups answered by the member-set
	// memo instead of a fresh pricing.
	MemoHits int
	// BoundPrunings counts candidate sub-partitions skipped because a
	// lower bound already met or exceeded the best known completion.
	BoundPrunings int
	// Fallbacks counts compatibility buckets the enum strategy degraded
	// to greedy because the state budget was (or would be) exhausted.
	Fallbacks int
}

// FusedGroup is one entry of the optimized training plan: one or more
// source models fused into a single multi-branch model with a shared reuse
// plan. Each source model keeps its own loss/optimizer branch.
type FusedGroup struct {
	// Items are the source (M_i, ϕ_i) pairs fused into this group.
	Items []WorkItem
	// MM is the merged graph of the group's models. It is always set: a
	// single-model group wraps its model in a one-model merge. Only a group
	// that is returned is built; FUSE OPT's trial groups are views.
	MM *mmg.MultiModel
	// Plan is the group's reuse plan over the merged graph given V.
	Plan *Plan
	// PeakMemBytes is the analytical memory estimate at the group's batch
	// size.
	PeakMemBytes int64
}

// BatchSize returns the group's (shared) training batch size.
func (g *FusedGroup) BatchSize() int { return g.Items[0].BatchSize }

// Epochs returns the group's (shared) epoch count.
func (g *FusedGroup) Epochs() int { return g.Items[0].Epochs }

// Name identifies the group in traces and conformance reports: the first
// member's model name, plus the count of further fused members.
func (g *FusedGroup) Name() string {
	if len(g.Items) == 1 {
		return g.Items[0].Model.Name
	}
	return fmt.Sprintf("%s+%d", g.Items[0].Model.Name, len(g.Items)-1)
}

// PlanPolicy says how a group's reuse plan is chosen from its profiled
// merged graph — the one thing the paper's approaches disagree on once V
// and the group's membership are fixed.
type PlanPolicy int

// Plan policies.
const (
	// ReusePlan is the optimum given V (SolveReusePlan, Section 4.3.2).
	ReusePlan PlanPolicy = iota
	// UnmodifiedPlan computes every layer (CurrentPracticePlan).
	UnmodifiedPlan
	// LoadFrontierPlan loads the whole materializable frontier whatever it
	// costs (the MAT-ALL baseline).
	LoadFrontierPlan
)

// BuildGroup is the one way a training group comes to be, whatever the
// approach and however many models it holds: price it on a merged view of
// the items' profiles (the plan by policy given V, its peak memory), then
// build the merged graph and derive its profile from the items'
// (mmg.BuildProfiled; verify.Groups validates the groups a plan emits).
// FUSE OPT prices every trial group and builds only those it returns.
// slotBytes is the optimizer-state bytes per trainable byte (AdamSlotBytes).
func BuildGroup(items []WorkItem, matSigs map[graph.Signature]bool, policy PlanPolicy, slotBytes int64) (*FusedGroup, error) {
	sc := scratchPool.Get().(*scratch)
	t, err := sc.price(number(items), items, matSigs, policy, slotBytes)
	scratchPool.Put(sc)
	if err != nil {
		return nil, err
	}
	return t.build()
}

// trial is a priced group: what FUSE OPT compares, and building reuses.
type trial struct {
	items   []WorkItem
	actions []Action // by merged node
	cost    int64    // CostPerRecord
	peak    int64    // PeakMemBytes
}

// perEpochCost is cost/record × epochs; FUSE OPT minimizes the sum.
func (t *trial) perEpochCost() int64 { return t.cost * int64(t.items[0].Epochs) }

// price is BuildGroup's first step on sc, with nb numbering the items'
// profiles.
func (sc *scratch) price(nb *numbering, items []WorkItem, matSigs map[graph.Signature]bool, policy PlanPolicy, slotBytes int64) (*trial, error) {
	v, err := sc.merge(nb, items)
	if err != nil {
		return nil, err
	}
	actions, cost, err := sc.plan(v, matSigs, policy)
	if err != nil {
		return nil, err
	}
	peak := sc.peakMemory(v, actions, items[0].BatchSize, slotBytes).Total()
	return &trial{items: items, actions: actions, cost: cost, peak: peak}, nil
}

// build is BuildGroup's second step: the merged graph, its derived profile
// and the priced plan over it, refused if it computes a node over a pruned
// parent.
func (t *trial) build() (*FusedGroup, error) {
	profs := make([]*profile.ModelProfile, len(t.items))
	for i, it := range t.items {
		profs[i] = it.Prof
	}
	mm, prof, err := mmg.BuildProfiled(profs...)
	if err != nil {
		return nil, err
	}
	g := &FusedGroup{Items: t.items, MM: mm, Plan: &Plan{Prof: prof, Actions: t.actions, CostPerRecord: t.cost}, PeakMemBytes: t.peak}
	if n, parent := g.Plan.prunedInput(); n != nil {
		return nil, fmt.Errorf("opt: group %s: plan computes %q but its parent %q is pruned", g.Name(), n.Name, parent.Name)
	}
	return g, nil
}

// SingletonGroups builds one group per item, in input order: the whole
// training plan of the approaches that do not fuse.
func SingletonGroups(items []WorkItem, matSigs map[graph.Signature]bool, policy PlanPolicy, slotBytes int64) ([]*FusedGroup, error) {
	groups := make([]*FusedGroup, len(items))
	for i, it := range items {
		var err error
		if groups[i], err = BuildGroup([]WorkItem{it}, matSigs, policy, slotBytes); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// Fuser is the model fusion optimization (FUSE OPT, Section 4.3): it
// partitions the workload into fused groups, each priced and built as
// BuildGroup does under ReusePlan. Only items with equal batch size and
// equal epoch count can share a group — batch size because fused branches train on the same
// mini-batches (the paper's condition), epochs because the fused model runs
// one training loop — so the search runs per compatibility bucket. It is
// one enumerator with two settings: "enum" searches a bucket's partitions
// exactly while the state budget lasts and solves the rest with Algorithm
// 1; "greedy" never enumerates, so every bucket is Algorithm 1. Either way
// the result is a partition of the input whose multi-model groups respect
// cfg.MemBudgetBytes, and enum never costs more than greedy.
type Fuser struct {
	name string
	// stateBudget caps multi-model candidate pricings spent enumerating
	// across one Fuse call.
	stateBudget int
}

// NewFuser resolves a strategy name ("" means greedy). stateBudget only
// matters to enum (0 means DefaultFuseStateBudget).
func NewFuser(name string, stateBudget int) (*Fuser, error) {
	switch name {
	case "":
		name = FuserGreedy
	case FuserGreedy, FuserEnum:
	default:
		return nil, fmt.Errorf("opt: unknown fuser %q (want %q or %q)", name, FuserGreedy, FuserEnum)
	}
	if stateBudget == 0 {
		stateBudget = DefaultFuseStateBudget
	}
	return &Fuser{name: name, stateBudget: stateBudget}, nil
}

// Name is the strategy name the fuser was created with, for stats, traces
// and CLI output.
func (f *Fuser) Name() string { return f.name }

// Fuse partitions the work items into fused groups given the materialized
// set V (by expression signature), ordered by first member name. Trials,
// singletons included, are priced with one scratch and one numbering.
func (f *Fuser) Fuse(items []WorkItem, matSigs map[graph.Signature]bool, cfg FuseConfig) ([]*FusedGroup, error) {
	if cfg.Stats != nil {
		cfg.Stats.Strategy = f.name
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nb := number(items)
	nb.classify(items, matSigs)
	e := &enumState{
		sc:        sc,
		nums:      nb,
		matSigs:   matSigs,
		cfg:       cfg,
		enumerate: f.name == FuserEnum,
		remaining: f.stateBudget,
		byClass:   map[string]*trial{},
	}
	singles := make([]*trial, len(items))
	for i, it := range items {
		var err error
		if singles[i], err = e.price([]WorkItem{it}); err != nil {
			return nil, err
		}
	}
	var out []*trial
	for _, bucket := range compatBuckets(singles) {
		trials, err := e.fuseBucket(bucket)
		if err != nil {
			return nil, err
		}
		out = append(out, trials...)
	}
	sortTrials(out)
	groups := make([]*FusedGroup, len(out))
	for i, t := range out {
		var err error
		if groups[i], err = t.build(); err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// sortTrials orders trials deterministically by first member name.
func sortTrials(trials []*trial) {
	sort.Slice(trials, func(i, j int) bool {
		return trials[i].items[0].Model.Name < trials[j].items[0].Model.Name
	})
}

// compatBuckets splits singleton trials into fusibility classes — equal
// batch size and equal epoch count — ordered by (batch, epochs), each
// bucket keeping the input order.
func compatBuckets(singles []*trial) [][]*trial {
	type key struct{ batch, epochs int }
	byKey := map[key][]*trial{}
	var keys []key
	for _, t := range singles {
		k := key{t.items[0].BatchSize, t.items[0].Epochs}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], t)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].batch != keys[j].batch {
			return keys[i].batch < keys[j].batch
		}
		return keys[i].epochs < keys[j].epochs
	})
	buckets := make([][]*trial, len(keys))
	for i, k := range keys {
		buckets[i] = byKey[k]
	}
	return buckets
}

// fuseGreedy is Algorithm 1 over one bucket's singleton trials: repeatedly
// fuse the pair with the highest cost reduction whose fused peak memory
// fits B_mem, until no beneficial fusible pair remains. Pairs are scanned
// in list order and only a strictly larger gain displaces the incumbent,
// so ties go to the earliest pair.
func (e *enumState) fuseGreedy(groups []*trial) ([]*trial, error) {
	cfg := e.cfg
	// Trials are immutable once priced, so a pair is priced once and its
	// fused trial reused across greedy rounds; a rejected pair maps to nil.
	type pairKey struct{ a, b *trial }
	tried := map[pairKey]*trial{}

	for {
		// Evaluate all not-yet-rejected pairs.
		var bestI, bestJ int
		var bestGroup *trial
		var bestGain int64
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				gi, gj := groups[i], groups[j]
				key := pairKey{gi, gj}
				fused, seen := tried[key]
				if seen && fused == nil {
					continue
				}
				if !seen {
					var err error
					if fused, err = e.price(append(append([]WorkItem(nil), gi.items...), gj.items...)); err != nil {
						return nil, err
					}
					tried[key] = fused
					if cfg.Stats != nil {
						cfg.Stats.PairsEvaluated++
					}
				}
				gain := gi.perEpochCost() + gj.perEpochCost() - fused.perEpochCost()
				if gain <= 0 || fused.peak > cfg.MemBudgetBytes {
					tried[key] = nil
					if cfg.Stats != nil {
						cfg.Stats.PairsRejected++
					}
					continue
				}
				if gain > bestGain {
					bestGain = gain
					bestI, bestJ, bestGroup = i, j, fused
				}
			}
		}
		if bestGroup == nil {
			break
		}
		if cfg.Stats != nil {
			cfg.Stats.Rounds++
		}
		// Replace the pair with the fused trial, and drop the pairs that
		// name a merged-away trial: no future round can try them again.
		for key := range tried {
			if key.a == groups[bestI] || key.a == groups[bestJ] || key.b == groups[bestI] || key.b == groups[bestJ] {
				delete(tried, key)
			}
		}
		next := groups[:0:0]
		for k, g := range groups {
			if k != bestI && k != bestJ {
				next = append(next, g)
			}
		}
		groups = append(next, bestGroup)
	}
	return groups, nil
}

// TotalPlanCost returns Σ over groups of cost/record × epochs — the
// workload's planned cost per training record summed across every group's
// full epoch schedule (the quantity Equation 6 scales by r).
func TotalPlanCost(groups []*FusedGroup) int64 {
	var total int64
	for _, g := range groups {
		total += g.Plan.CostPerRecord * int64(g.Epochs())
	}
	return total
}
