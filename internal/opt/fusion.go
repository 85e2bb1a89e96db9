package opt

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

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
	// PairsEvaluated counts fused candidate groups actually built
	// (BuildGroup: merge with a profile derived from the members', reuse-plan
	// solve, memory estimate): greedy pairs and enumerated subset candidates
	// alike. Cached groups don't recount.
	PairsEvaluated int
	// PairsRejected counts greedy pairs dismissed for non-positive gain
	// or a B_mem violation.
	PairsRejected int
	// StatesExplored counts partition-DP subproblems solved while
	// enumerating (memoized states are not recounted).
	StatesExplored int
	// MemoHits counts candidate-group lookups answered by the member-set
	// memo instead of a fresh BuildGroup.
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
	// single-model group wraps its model in a one-model merge.
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

// CostPerRecord returns the group's per-record training cost.
func (g *FusedGroup) CostPerRecord() int64 { return g.Plan.CostPerRecord }

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
	// costs (ForcedLoadPlan, the MAT-ALL baseline).
	LoadFrontierPlan
)

// BuildGroup is the one way a training group comes to be, whatever the
// approach and whether it holds one model or many: merge the items' models
// into one graph whose profile is derived from the items' own profiles
// (mmg.BuildProfiled — nothing is re-hashed, re-inferred or re-validated;
// verify.Groups validates the groups a plan emits), choose the reuse plan
// by policy given V, and estimate peak memory at the group's batch size.
// slotBytes is the optimizer-state overhead per trainable parameter byte
// (AdamSlotBytes).
func BuildGroup(items []WorkItem, matSigs map[graph.Signature]bool, policy PlanPolicy, slotBytes int64) (*FusedGroup, error) {
	profs := make([]*profile.ModelProfile, len(items))
	for i, it := range items {
		profs[i] = it.Prof
	}
	mm, prof, err := mmg.BuildProfiled(profs...)
	if err != nil {
		return nil, err
	}
	var plan *Plan
	switch policy {
	case ReusePlan:
		plan, err = SolveReusePlan(prof, matSigs)
	case UnmodifiedPlan:
		plan = CurrentPracticePlan(prof)
	case LoadFrontierPlan:
		plan = ForcedLoadPlan(prof)
	default:
		err = fmt.Errorf("opt: unknown plan policy %d", policy)
	}
	if err != nil {
		return nil, err
	}
	return newGroup(items, mm, plan, slotBytes)
}

// newGroup completes a group, refusing a plan that computes over a pruned parent.
func newGroup(items []WorkItem, mm *mmg.MultiModel, plan *Plan, slotBytes int64) (*FusedGroup, error) {
	g := &FusedGroup{Items: items, MM: mm, Plan: plan}
	if n, parent := plan.prunedInput(); n != nil {
		return nil, fmt.Errorf("opt: group %s: plan computes %q but its parent %q is pruned", g.Name(), n.Name, parent.Name)
	}
	g.PeakMemBytes = EstimatePeakMemory(plan, items[0].BatchSize, slotBytes).Total()
	return g, nil
}

// SingletonGroups builds one group per item, in input order: the whole
// training plan of the approaches that do not fuse, and the starting point
// of FUSE OPT for those that do. Candidates are independent, so the builds
// fan out over up to GOMAXPROCS goroutines; the lowest-index error wins.
func SingletonGroups(items []WorkItem, matSigs map[graph.Signature]bool, policy PlanPolicy, slotBytes int64) ([]*FusedGroup, error) {
	groups := make([]*FusedGroup, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			groups[i], errs[i] = BuildGroup([]WorkItem{items[i]}, matSigs, policy, slotBytes)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return groups, nil
}

// Fuser is the model fusion optimization (FUSE OPT, Section 4.3): it
// partitions the workload into fused groups, each built by BuildGroup under
// ReusePlan. Only items with equal batch size and equal epoch count can
// share a group — batch size because fused branches train on the same
// mini-batches (the paper's condition), epochs because the fused model runs
// one training loop — so the search runs per compatibility bucket. It is
// one enumerator with two settings: "enum" searches a bucket's partitions
// exactly while the state budget lasts and solves the rest with Algorithm
// 1; "greedy" never enumerates, so every bucket is Algorithm 1. Either way
// the result is a partition of the input whose multi-model groups respect
// cfg.MemBudgetBytes, and enum never costs more than greedy.
type Fuser struct {
	name string
	// stateBudget caps multi-model candidate builds spent enumerating
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
// set V (by expression signature), ordered by first member name.
func (f *Fuser) Fuse(items []WorkItem, matSigs map[graph.Signature]bool, cfg FuseConfig) ([]*FusedGroup, error) {
	if cfg.Stats != nil {
		cfg.Stats.Strategy = f.name
	}
	singles, err := SingletonGroups(items, matSigs, ReusePlan, cfg.OptimizerSlotBytes)
	if err != nil {
		return nil, err
	}
	e := &enumState{
		matSigs:   matSigs,
		cfg:       cfg,
		enumerate: f.name == FuserEnum,
		remaining: f.stateBudget,
		cache:     map[string]*FusedGroup{},
	}
	var out []*FusedGroup
	for _, bucket := range compatBuckets(singles) {
		groups, err := e.fuseBucket(bucket)
		if err != nil {
			return nil, err
		}
		out = append(out, groups...)
	}
	sortGroups(out)
	return out, nil
}

// sortGroups orders groups deterministically by first member name.
func sortGroups(groups []*FusedGroup) {
	sort.Slice(groups, func(i, j int) bool {
		return groups[i].Items[0].Model.Name < groups[j].Items[0].Model.Name
	})
}

// compatBuckets splits singleton groups into fusibility classes — equal
// batch size and equal epoch count — ordered by (batch, epochs), each
// bucket keeping the input order.
func compatBuckets(singles []*FusedGroup) [][]*FusedGroup {
	type key struct{ batch, epochs int }
	byKey := map[key][]*FusedGroup{}
	var keys []key
	for _, g := range singles {
		k := key{g.BatchSize(), g.Epochs()}
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], g)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].batch != keys[j].batch {
			return keys[i].batch < keys[j].batch
		}
		return keys[i].epochs < keys[j].epochs
	})
	buckets := make([][]*FusedGroup, len(keys))
	for i, k := range keys {
		buckets[i] = byKey[k]
	}
	return buckets
}

// fuseGreedy is Algorithm 1 over one bucket's singleton groups: repeatedly
// fuse the pair with the highest cost reduction whose fused peak memory
// fits B_mem, until no beneficial fusible pair remains. Pairs are scanned
// in list order and only a strictly larger gain displaces the incumbent,
// so ties go to the earliest pair.
func fuseGreedy(groups []*FusedGroup, matSigs map[graph.Signature]bool, cfg FuseConfig) ([]*FusedGroup, error) {
	type pairKey struct{ a, b *FusedGroup }
	rejected := map[pairKey]bool{}
	// Groups are immutable once built, so a pair's fused candidate can be
	// evaluated once and reused across greedy rounds.
	fusedCache := map[pairKey]*FusedGroup{}

	for {
		// Evaluate all not-yet-rejected pairs.
		var bestI, bestJ int
		var bestGroup *FusedGroup
		var bestGain int64
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				gi, gj := groups[i], groups[j]
				key := pairKey{gi, gj}
				if rejected[key] {
					continue
				}
				fused := fusedCache[key]
				if fused == nil {
					var err error
					members := append(append([]WorkItem(nil), gi.Items...), gj.Items...)
					fused, err = BuildGroup(members, matSigs, ReusePlan, cfg.OptimizerSlotBytes)
					if err != nil {
						return nil, err
					}
					fusedCache[key] = fused
					if cfg.Stats != nil {
						cfg.Stats.PairsEvaluated++
					}
				}
				gain := perEpochCost(gi) + perEpochCost(gj) - perEpochCost(fused)
				if gain <= 0 || fused.PeakMemBytes > cfg.MemBudgetBytes {
					rejected[key] = true
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
		// Replace the pair with the fused group, and drop cache entries
		// that reference the merged-away groups: no future pair can name
		// them again, and keeping them would retain their profiled graphs
		// (O(n²) dead *FusedGroup pointers over a full run).
		merged := map[*FusedGroup]bool{groups[bestI]: true, groups[bestJ]: true}
		for key := range rejected {
			if merged[key.a] || merged[key.b] {
				delete(rejected, key)
			}
		}
		for key := range fusedCache {
			if merged[key.a] || merged[key.b] {
				delete(fusedCache, key)
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

// perEpochCost is the group's per-record-per-epoch cost × epochs — the
// quantity FUSE OPT minimizes the sum of.
func perEpochCost(g *FusedGroup) int64 {
	return g.Plan.CostPerRecord * int64(g.Epochs())
}

// TotalPlanCost returns Σ over groups of cost/record × epochs — the
// workload's planned cost per training record summed across every group's
// full epoch schedule (the quantity Equation 6 scales by r).
func TotalPlanCost(groups []*FusedGroup) int64 {
	var total int64
	for _, g := range groups {
		total += perEpochCost(g)
	}
	return total
}
