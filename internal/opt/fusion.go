package opt

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/profile"
)

// FuserGreedy is the one fusion strategy, the paper's Algorithm 1:
// greedy best-pair merging. NewFuser and core.Config.Fuser accept it or
// "".
const FuserGreedy = "greedy"

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

// FuseStats counts the work of one Fuse run of Algorithm 1.
type FuseStats struct {
	// Rounds is the number of greedy iterations that merged a pair.
	Rounds int
	// PairsEvaluated counts the trial groups priced — on a merged view of
	// the members' profiles: reuse-plan solve and memory estimate, no graph
	// built. Cached trials don't recount. Only the groups Fuse returns
	// become graphs.
	PairsEvaluated int
	// PairsRejected counts greedy pairs dismissed for non-positive gain
	// or a B_mem violation.
	PairsRejected int
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
// BuildGroup does under ReusePlan, by Algorithm 1. Only items with equal
// batch size and equal epoch count can share a group — batch size because
// fused branches train on the same mini-batches (the paper's condition),
// epochs because the fused model runs one training loop — so Algorithm 1
// runs per compatibility bucket. The result is a partition of the input
// whose multi-model groups respect cfg.MemBudgetBytes.
type Fuser struct{}

// NewFuser returns the fuser. Its arguments are the retired strategy
// selection, which bench/probes.go still passes: only name "" or
// FuserGreedy and stateBudget 0 are accepted. ROADMAP item 3(1)'s
// benchmark PR removes both parameters.
func NewFuser(name string, stateBudget int) (*Fuser, error) {
	if name != "" && name != FuserGreedy {
		return nil, fmt.Errorf("opt: unknown fuser %q (want %q)", name, FuserGreedy)
	}
	if stateBudget != 0 {
		return nil, fmt.Errorf("opt: fuse state budget %d: Algorithm 1 takes none (want 0)", stateBudget)
	}
	return &Fuser{}, nil
}

// Fuse partitions the work items into fused groups given the materialized
// set V (by expression signature), ordered by first member name.
func (f *Fuser) Fuse(items []WorkItem, matSigs map[graph.Signature]bool, cfg FuseConfig) ([]*FusedGroup, error) {
	return fuse(items, matSigs, cfg, (*pricer).fuseGreedy)
}

// fuse prices every item's singleton trial, partitions each compatibility
// bucket by solve, and builds the groups in first-member-name order.
// Trials, singletons included, are priced with one scratch and one
// numbering.
func fuse(items []WorkItem, matSigs map[graph.Signature]bool, cfg FuseConfig, solve func(*pricer, []*trial) ([]*trial, error)) ([]*FusedGroup, error) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	nb := number(items)
	nb.classify(items, matSigs)
	p := &pricer{sc: sc, nums: nb, matSigs: matSigs, cfg: cfg, byClass: map[string]*trial{}}
	singles := make([]*trial, len(items))
	for i, it := range items {
		var err error
		if singles[i], err = p.price([]WorkItem{it}); err != nil {
			return nil, err
		}
	}
	var out []*trial
	for _, bucket := range compatBuckets(singles) {
		trials, err := solve(p, bucket)
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

// pricer prices one Fuse call's trial groups: what they are priced with
// and the priced trials by batch size and member class sequence.
type pricer struct {
	sc      *scratch
	nums    *numbering
	matSigs map[graph.Signature]bool
	cfg     FuseConfig
	byClass map[string]*trial
	key     []byte
}

// price prices a trial group, or answers it from the trial first priced for
// the same batch size and sequence of member classes: such trials merge to
// the same view with the same priced facts, so they have the same actions,
// cost and peak. The answer carries the caller's items.
func (p *pricer) price(items []WorkItem) (*trial, error) {
	p.key = binary.AppendVarint(p.key[:0], int64(items[0].BatchSize))
	for _, it := range items {
		x := p.nums.of[it.Prof]
		if x == nil || x.class < 0 {
			return p.sc.price(p.nums, items, p.matSigs, ReusePlan, p.cfg.OptimizerSlotBytes)
		}
		p.key = binary.AppendVarint(p.key, int64(x.class))
	}
	if t, ok := p.byClass[string(p.key)]; ok {
		hit := &trial{items: items, actions: slices.Clone(t.actions), cost: t.cost, peak: t.peak}
		if classPricingCheck.fuse != nil {
			classPricingCheck.fuse(p, items, hit)
		}
		return hit, nil
	}
	t, err := p.sc.price(p.nums, items, p.matSigs, ReusePlan, p.cfg.OptimizerSlotBytes)
	if err != nil {
		return nil, err
	}
	p.byClass[string(p.key)] = t
	return t, nil
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
func (p *pricer) fuseGreedy(groups []*trial) ([]*trial, error) {
	cfg := p.cfg
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
					if fused, err = p.price(append(append([]WorkItem(nil), gi.items...), gj.items...)); err != nil {
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
