package core

import (
	"fmt"
	"sort"
	"time"

	"nautilus/internal/data"
	"nautilus/internal/opt"
)

// HalvingConfig parameterizes successive halving, one of the "more complex
// model selection procedures" the paper defers to future work (Section 6).
// Rung r trains every surviving candidate for RungEpochs[r] epochs from its
// initial weights, then keeps the top half by validation accuracy.
type HalvingConfig struct {
	// RungEpochs lists the per-rung epoch budgets, e.g. {1, 2, 5}. The
	// final rung's survivors are ranked for the cycle's result.
	RungEpochs []int
	// Keep is the survival fraction per rung (default 0.5).
	Keep float64
}

// HalvingResult reports one successive-halving cycle.
type HalvingResult struct {
	FitResult
	// RungSurvivors records how many candidates entered each rung.
	RungSurvivors []int
	// RungGroups records the training groups each rung ran.
	RungGroups [][]*opt.FusedGroup
	// TotalEpochsTrained sums candidate×epoch across rungs, the budget
	// halving saves relative to full-epoch training of every candidate.
	TotalEpochsTrained int
}

// FitHalving runs one model-selection cycle under successive halving: each
// rung regroups and re-verifies just the surviving candidates through the
// planner's own grouping stage (Planner.planGroups), so the configured
// Approach decides whether they fuse, and fusion groups shrink with the
// field. Materialized artifacts are shared across rungs.
func (ms *ModelSelection) FitHalving(snap data.Snapshot, cfg HalvingConfig) (*HalvingResult, error) {
	if len(cfg.RungEpochs) == 0 {
		return nil, fmt.Errorf("core: halving needs at least one rung")
	}
	keep := cfg.Keep
	if keep <= 0 || keep >= 1 {
		keep = 0.5
	}
	//lint:ignore determinism wall-clock measurement of real fit time, reported to the user
	started := time.Now()
	span, reopt, err := ms.beginCycle(snap)
	defer span.End()
	if err != nil {
		return nil, err
	}

	spec, _ := ms.cfg.Approach.spec() // known: ensurePlanned has replanned with it
	res := &HalvingResult{}
	res.Cycle, res.ReOptimized = ms.cycle, reopt
	survivors := append([]opt.WorkItem(nil), ms.planner.items...)

	for rung, epochs := range cfg.RungEpochs {
		res.RungSurvivors = append(res.RungSurvivors, len(survivors))
		res.TotalEpochsTrained += epochs * len(survivors)

		// Fresh start per rung: reset weights, override the epoch budget.
		rungItems := make([]opt.WorkItem, len(survivors))
		for i, it := range survivors {
			for _, p := range it.Model.TrainableParams() {
				p.Reset()
			}
			it.Epochs = epochs
			rungItems[i] = it
		}
		groups, _, err := ms.planner.planGroups(nil, spec, rungItems, ms.MaterializedSignatures())
		if err != nil {
			return nil, err
		}
		res.RungGroups = append(res.RungGroups, groups)
		trained, err := ms.trainer.TrainGroups(groups, snap, ms.cfg.MemBudgetBytes, nil)
		if err != nil {
			return nil, err
		}
		rungResults := candidateResults(trained)
		sort.Slice(rungResults, func(i, j int) bool {
			//lint:ignore floateq deterministic tie-break requires exact equality of reported scores
			if rungResults[i].ValAcc != rungResults[j].ValAcc {
				return rungResults[i].ValAcc > rungResults[j].ValAcc
			}
			return rungResults[i].Model < rungResults[j].Model
		})

		if rung == len(cfg.RungEpochs)-1 {
			res.Results = rungResults
			res.Best = rungResults[0]
			break
		}
		n := int(float64(len(rungResults)) * keep)
		if n < 1 {
			n = 1
		}
		kept := map[string]bool{}
		for _, r := range rungResults[:n] {
			kept[r.Model] = true
		}
		var next []opt.WorkItem
		for _, it := range survivors {
			if kept[it.Model.Name] {
				next = append(next, it)
			}
		}
		survivors = next
	}
	//lint:ignore determinism wall-clock measurement of real fit time, reported to the user
	res.Duration = time.Since(started)
	return res, nil
}
