package exec

import (
	"sort"

	"nautilus/internal/data"
	"nautilus/internal/opt"
	"nautilus/internal/tensor"
)

// slotTracks is the number of span tracks a slot owns: slot s draws its
// training loop on track slotTracks*s and that loop's prefetcher two above,
// so slot 0 keeps the tracks a lone TrainGroup has always used (0 and 2).
const slotTracks = 3

// TrainGroups trains every group of a plan on snap and returns the branch
// results in plan order. The fused groups of one cycle are independent SGD
// programs (Section 5.2) that share only frozen, read-only layers, so up to
// tensor.MaxWorkers() of them run at once — the coarse level of
// parallelism, above the per-kernel tensor.Parallel, which keeps the same
// ambient cap so a straggler group can use the cores the others left idle.
// A group is admitted only while the PeakMemBytes of the groups in flight
// plus its own stay within memBudget (B_mem, the bound FUSE OPT packed each
// group under); an idle trainer always admits one, so a budget that fits a
// single group trains them one after another, on this same path. Groups
// start longest-predicted-first (the cost model's compute per record ×
// epochs), the longest-processing-time rule that keeps the tail short.
//
// checkpoint, when non-nil, runs on the group's slot once it has trained.
// On a failure no further group is admitted, the ones in flight finish, and
// the error of the lowest plan index is returned. Results and t.Metrics are
// the same for every slot count: each group seeds its own shuffle from
// t.Seed and accounts into its own Metrics, merged after the join, so
// Metrics.Wall is busy time summed over groups, not elapsed time.
func (t *Trainer) TrainGroups(groups []*opt.FusedGroup, snap data.Snapshot, memBudget int64, checkpoint func(gi int, g *opt.FusedGroup) error) ([][]BranchResult, error) {
	order := make([]int, len(groups))
	cost := make([]int64, len(groups))
	for gi, g := range groups {
		order[gi] = gi
		cost[gi] = g.Plan.ComputeFLOPsPerRecord() * int64(g.Epochs())
		// Conformance lists groups in first-seen order: pin it to the plan's.
		t.Obs.Conformance().Group(g.Name())
	}
	sort.SliceStable(order, func(i, j int) bool { return cost[order[i]] > cost[order[j]] })

	free := make([]int, tensor.MaxWorkers()) // stack of idle slots, slot 0 on top
	for i := range free {
		free[i] = len(free) - 1 - i
	}
	inFlight := t.Obs.Registry().Gauge("trainer.groups_in_flight")
	results := make([][]BranchResult, len(groups))
	errs := make([]error, len(groups))
	metrics := make([]Metrics, len(groups))
	type finished struct{ gi, slot int }
	done := make(chan finished)
	var running int
	var mem int64
	failed := false
	for next := 0; running > 0 || (next < len(order) && !failed); {
		for ; next < len(order) && !failed && len(free) > 0; next++ {
			gi := order[next]
			g := groups[gi]
			if running > 0 && mem+g.PeakMemBytes > memBudget {
				break
			}
			slot := free[len(free)-1]
			free = free[:len(free)-1]
			running++
			mem += g.PeakMemBytes
			inFlight.SetMax(int64(running))
			go func() {
				results[gi], errs[gi] = t.trainGroup(g, snap, &metrics[gi], slot)
				if errs[gi] == nil && checkpoint != nil {
					errs[gi] = checkpoint(gi, g)
				}
				done <- finished{gi, slot}
			}()
		}
		// Something is in flight here: an idle trainer with work left has
		// just admitted a group.
		f := <-done
		free = append(free, f.slot)
		running--
		mem -= groups[f.gi].PeakMemBytes
		failed = failed || errs[f.gi] != nil
	}
	var err error
	for gi := range groups {
		if t.Metrics != nil {
			t.Metrics.Add(&metrics[gi])
		}
		if err == nil {
			err = errs[gi]
		}
	}
	if err != nil {
		return nil, err
	}
	return results, nil
}
