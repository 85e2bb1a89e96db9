package opt

import (
	"fmt"
	"slices"
	"testing"

	"nautilus/internal/graph"
)

// TrialPricer prices trial groups the way one Fuse call does: one numbering
// of every work item, one scratch reused from trial to trial.
type TrialPricer struct {
	sc   *scratch
	nb   *numbering
	sigs map[graph.Signature]bool
}

// NewTrialPricer numbers items for trials under V = sigs.
func NewTrialPricer(items []WorkItem, sigs map[graph.Signature]bool) *TrialPricer {
	return &TrialPricer{sc: new(scratch), nb: number(items), sigs: sigs}
}

// Price prices members under ReusePlan and returns the trial — its actions
// by merged node, its cost and the peak it carries — with the memory
// estimate of its merged view.
func (p *TrialPricer) Price(members []WorkItem) ([]Action, int64, int64, MemoryEstimate, error) {
	t, err := p.sc.price(p.nb, members, p.sigs, ReusePlan, AdamSlotBytes)
	if err != nil {
		return nil, 0, 0, MemoryEstimate{}, err
	}
	return t.actions, t.cost, t.peak, p.sc.peakMemory(&p.sc.view, t.actions, members[0].BatchSize, AdamSlotBytes), nil
}

// ClassPricingCheck counts what CheckClassPricing re-priced and lists what
// disagreed.
type ClassPricingCheck struct {
	MatEvals, FuseHits int
	Mismatches         []string
}

// CheckClassPricing re-prices, until the test ends, every MAT OPT
// evaluation item by item (one min-cut per work item, weighed by its own
// epochs) and every FUSE OPT trial answered from an equal class sequence
// (a fresh pricing of its own members), each on a scratch of its own.
func CheckClassPricing(t testing.TB) *ClassPricingCheck {
	c := &ClassPricingCheck{}
	ref := new(scratch)
	classPricingCheck.mat = func(s *matSearch, from int, cost int64) {
		c.MatEvals++
		pos := make(map[graph.Signature]int, len(s.cands))
		for i, cand := range s.cands {
			pos[cand.Sig] = i + 1
		}
		var want int64
		for _, it := range s.items {
			loadable := make([]bool, len(it.Prof.Layers))
			for i := range it.Prof.Layers {
				p := pos[it.Prof.Layers[i].Sig]
				loadable[i] = p > 0 && (p > from || s.chosen[p-1])
			}
			got, err := ref.planCost(ref.view.wrap(it.Prof), loadable)
			if err != nil {
				c.Mismatches = append(c.Mismatches, fmt.Sprintf("MAT item %s: %v", it.Model.Name, err))
				return
			}
			want += got * int64(it.Epochs)
		}
		if cost != want {
			c.Mismatches = append(c.Mismatches, fmt.Sprintf("MAT evaluation (from %d, chosen %v): by class %d, item by item %d", from, s.chosen, cost, want))
		}
	}
	classPricingCheck.fuse = func(e *enumState, items []WorkItem, hit *trial) {
		c.FuseHits++
		want, err := ref.price(e.nums, items, e.matSigs, ReusePlan, e.cfg.OptimizerSlotBytes)
		switch {
		case err != nil:
			c.Mismatches = append(c.Mismatches, fmt.Sprintf("FUSE trial %s: %v", memberNames(items), err))
		case hit.cost != want.cost || hit.peak != want.peak || !slices.Equal(hit.actions, want.actions):
			c.Mismatches = append(c.Mismatches, fmt.Sprintf("FUSE trial %s: by class cost %d peak %d, priced %d peak %d (actions equal: %v)",
				memberNames(items), hit.cost, hit.peak, want.cost, want.peak, slices.Equal(hit.actions, want.actions)))
		}
	}
	t.Cleanup(func() { classPricingCheck.mat, classPricingCheck.fuse = nil, nil })
	return c
}

func memberNames(items []WorkItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Model.Name
	}
	return names
}
