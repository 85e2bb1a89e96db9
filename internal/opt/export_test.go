package opt

import "nautilus/internal/graph"

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
