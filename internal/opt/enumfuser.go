package opt

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"

	"nautilus/internal/graph"
)

// DefaultFuseStateBudget bounds how many multi-model candidate groups the
// enum strategy will price before a bucket degrades to greedy. Each pricing
// is a merged view, a min-cut solve and a peak-memory replay, so this is the
// knob that trades search optimality for planning latency.
const DefaultFuseStateBudget = 4096

// maxEnumBucketItems is the bitmask width cap: a compatibility bucket
// larger than this always falls back to greedy regardless of budget.
const maxEnumBucketItems = 20

// errFuseStateBudget aborts a bucket's partition search when the shared
// state budget runs out mid-enumeration; the bucket is re-solved greedily.
var errFuseStateBudget = errors.New("opt: fuse state budget exhausted")

// enumState is one Fuse call's search state, shared across buckets: what
// trials are priced with, whether buckets are enumerated at all, the
// remaining candidate budget, the enumerated bucket's trial memo (keyed by
// the member set) and the priced trials by member class sequence.
//
// Enumeration is the cost-based fusion plan search (the SystemML
// fusion-plan idea applied to FUSE OPT): per bucket, the minimum-
// TotalPlanCost partition into fused groups by dynamic programming over
// member subsets. Candidate groups are memoized on their member set so each
// subset is priced at most once, and a branch-and-bound check (each group
// costs at least its most expensive member's singleton plan) prunes
// sub-partitions that cannot beat the bucket's incumbent. A
// bucket that would (or does) exceed the budget degrades to Algorithm 1,
// whose result the DP search space contains.
type enumState struct {
	sc        *scratch
	nums      *numbering
	matSigs   map[graph.Signature]bool
	cfg       FuseConfig
	enumerate bool
	remaining int
	memo      map[int]*trial // by bitmask over the bucket being enumerated
	byClass   map[string]*trial
	key       []byte
}

// price prices a trial group, or answers it from the trial first priced for
// the same batch size and sequence of member classes: such trials merge to
// the same view with the same priced facts, so they have the same actions,
// cost and peak. The answer carries the caller's items.
func (e *enumState) price(items []WorkItem) (*trial, error) {
	e.key = binary.AppendVarint(e.key[:0], int64(items[0].BatchSize))
	for _, it := range items {
		x := e.nums.of[it.Prof]
		if x == nil || x.class < 0 {
			return e.sc.price(e.nums, items, e.matSigs, ReusePlan, e.cfg.OptimizerSlotBytes)
		}
		e.key = binary.AppendVarint(e.key, int64(x.class))
	}
	if t, ok := e.byClass[string(e.key)]; ok {
		hit := &trial{items: items, actions: slices.Clone(t.actions), cost: t.cost, peak: t.peak}
		if classPricingCheck.fuse != nil {
			classPricingCheck.fuse(e, items, hit)
		}
		return hit, nil
	}
	t, err := e.sc.price(e.nums, items, e.matSigs, ReusePlan, e.cfg.OptimizerSlotBytes)
	if err != nil {
		return nil, err
	}
	e.byClass[string(e.key)] = t
	return t, nil
}

// fuseBucket partitions one compatibility bucket of singleton trials: by
// Algorithm 1 in input order when not enumerating; otherwise by the
// partition search over the name-sorted bucket (so bitmask positions are
// stable), degrading to Algorithm 1 when the budget cannot cover it.
func (e *enumState) fuseBucket(bucket []*trial) ([]*trial, error) {
	if !e.enumerate || len(bucket) == 1 {
		return e.fuseGreedy(bucket)
	}
	sortTrials(bucket)
	// A bucket of n items can require up to 2^n-1 candidate pricings; if
	// that cannot fit the remaining budget, don't start a search that is
	// doomed to abort.
	fits := len(bucket) <= maxEnumBucketItems && (1<<uint(len(bucket)))-1 <= e.remaining
	if fits {
		groups, err := e.solveBucket(bucket)
		if !errors.Is(err, errFuseStateBudget) {
			return groups, err
		}
	}
	if e.cfg.Stats != nil {
		e.cfg.Stats.Fallbacks++
	}
	return e.fuseGreedy(bucket)
}

// solveBucket finds the minimum-cost feasible partition of the bucket by
// DP over member subsets. Every partition of mask has exactly one group
// containing mask's lowest set bit, so candidate groups are anchored
// there and each partition is enumerated once.
func (e *enumState) solveBucket(bucket []*trial) ([]*trial, error) {
	n := len(bucket)
	full := (1 << uint(n)) - 1

	// Singleton plans: always feasible (a model the budget cannot hold
	// fused still has to train alone), and the source of the lower bound —
	// a fused group costs at least its costliest member's singleton plan,
	// because the merged plan restricted to that member is itself a valid
	// plan for it.
	items := make([]WorkItem, n)
	single := make([]int64, n)
	e.memo = make(map[int]*trial, n)
	for i, g := range bucket {
		items[i] = g.items[0]
		single[i] = g.perEpochCost()
		e.memo[1<<uint(i)] = g
	}
	// maxSingle[m] = max over set bits of single — both the group-cost
	// lower bound for a candidate over m and (since any partition of m
	// has some group containing the max member) the remainder bound.
	maxSingle := make([]int64, full+1)
	for m := 1; m <= full; m++ {
		low := m & (-m)
		maxSingle[m] = single[bitIndex(low)]
		if rest := m & (m - 1); rest != 0 && maxSingle[rest] > maxSingle[m] {
			maxSingle[m] = maxSingle[rest]
		}
	}

	memo := make(map[int]int64, full)
	choice := make(map[int]int, full)
	var solve func(mask int) (int64, error)
	solve = func(mask int) (int64, error) {
		if mask == 0 {
			return 0, nil
		}
		if c, ok := memo[mask]; ok {
			return c, nil
		}
		if e.cfg.Stats != nil {
			e.cfg.Stats.StatesExplored++
		}
		low := mask & (-mask)
		best := int64(math.MaxInt64)
		bestSub := 0
		for sub := mask; sub > 0; sub = (sub - 1) & mask {
			if sub&low == 0 {
				continue
			}
			rest := mask ^ sub
			if best != math.MaxInt64 && maxSingle[sub]+restBound(maxSingle, rest) >= best {
				// Even an ideally cheap group over sub cannot beat the
				// incumbent partition of this mask — skip the pricing.
				if e.cfg.Stats != nil {
					e.cfg.Stats.BoundPrunings++
				}
				continue
			}
			g, err := e.priceCached(items, sub)
			if err != nil {
				return 0, err
			}
			if len(g.items) > 1 && g.peak > e.cfg.MemBudgetBytes {
				continue // infeasible fusion under B_mem
			}
			cost := g.perEpochCost()
			if best != math.MaxInt64 && cost+restBound(maxSingle, rest) >= best {
				if e.cfg.Stats != nil {
					e.cfg.Stats.BoundPrunings++
				}
				continue
			}
			restCost, err := solve(rest)
			if err != nil {
				return 0, err
			}
			if total := cost + restCost; total < best {
				best = total
				bestSub = sub
			}
		}
		memo[mask] = best
		choice[mask] = bestSub
		return best, nil
	}
	if _, err := solve(full); err != nil {
		return nil, err
	}

	// Reconstruct the winning partition; every chosen subset is in the
	// memo, so these pricings are cache hits.
	var groups []*trial
	for mask := full; mask != 0; {
		sub := choice[mask]
		g, err := e.priceCached(items, sub)
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
		mask ^= sub
	}
	return groups, nil
}

// restBound lower-bounds the cost of any partition of the remaining mask.
func restBound(maxSingle []int64, rest int) int64 {
	if rest == 0 {
		return 0
	}
	return maxSingle[rest]
}

// priceCached returns the candidate trial for the bucket items a bitmask
// names, pricing it at most once per bucket and drawing down the state
// budget for each pricing. The bucket's singletons are in the memo before
// the search starts: every strategy needs them, so they are free.
func (e *enumState) priceCached(items []WorkItem, mask int) (*trial, error) {
	if g, ok := e.memo[mask]; ok {
		if e.cfg.Stats != nil {
			e.cfg.Stats.MemoHits++
		}
		return g, nil
	}
	if e.remaining <= 0 {
		return nil, errFuseStateBudget
	}
	e.remaining--
	g, err := e.price(subsetItems(items, mask))
	if err != nil {
		return nil, err
	}
	if e.cfg.Stats != nil {
		e.cfg.Stats.PairsEvaluated++
	}
	e.memo[mask] = g
	return g, nil
}

// subsetItems extracts the bucket items named by a bitmask, in bit order.
func subsetItems(items []WorkItem, mask int) []WorkItem {
	out := make([]WorkItem, 0, 4)
	for i := 0; mask != 0; i, mask = i+1, mask>>1 {
		if mask&1 != 0 {
			out = append(out, items[i])
		}
	}
	return out
}

// bitIndex returns the index of the (single) set bit of a power of two.
func bitIndex(bit int) int {
	i := 0
	for bit > 1 {
		bit >>= 1
		i++
	}
	return i
}
