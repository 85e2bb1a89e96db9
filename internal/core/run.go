package core

import (
	"time"

	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/workloads"
)

// CycleReport summarizes one labeling + model-selection cycle of a run.
type CycleReport struct {
	Cycle       int
	TrainSize   int
	Duration    time.Duration
	BestModel   string
	BestAcc     float64
	ReOptimized bool
}

// RunReport summarizes an end-to-end workload execution.
type RunReport struct {
	Workload string
	Approach Approach
	Cycles   []CycleReport
	Total    time.Duration
	Metrics  *exec.Metrics
	Init     *InitStats
	// TuneCoverage is ModelSelection.TuneCoverage ("" without a table).
	TuneCoverage string
	// FinalBest is the winning candidate of the last cycle.
	FinalBest CandidateResult
}

// BestAccs returns the per-cycle best validation accuracies.
func (r *RunReport) BestAccs() []float64 {
	out := make([]float64, len(r.Cycles))
	for i, c := range r.Cycles {
		out[i] = c.BestAcc
	}
	return out
}

// Run executes a full evolving-data workload (Figure 1A/B): the simulated
// labeler releases a batch per cycle and every cycle performs model
// selection over all labeled data so far, under the configured approach.
// maxCycles > 0 truncates the instance's default schedule.
func Run(inst *workloads.Instance, cfg Config, poolSeed int64, maxCycles int) (*RunReport, error) {
	return RunWithPool(inst, cfg, inst.NewPool(poolSeed), maxCycles)
}

// RunWithPool is Run over a caller-supplied pool — e.g. one expanded by
// data.AugmentPool, the paper's materialize-an-augmented-dataset route to
// augmentation support (Section 2.5).
func RunWithPool(inst *workloads.Instance, cfg Config, pool *data.Pool, maxCycles int) (*RunReport, error) {
	perCycle, trainPer, cycles := inst.CycleSchedule()
	if maxCycles > 0 && maxCycles < cycles {
		cycles = maxCycles
	}
	labeler := data.NewLabeler(pool, perCycle, trainPer)

	ms, err := New(inst.Items, inst.MM, cfg)
	if err != nil {
		return nil, err
	}
	defer ms.Close()

	report := &RunReport{Workload: inst.Spec.Name, Approach: cfg.Approach, Metrics: ms.Metrics(), TuneCoverage: ms.TuneCoverage()}
	started := time.Now()
	for k := 0; k < cycles && labeler.HasMore(); k++ {
		snap, _, _ := labeler.NextCycle()
		fit, err := ms.Fit(snap)
		if err != nil {
			return nil, err
		}
		report.Cycles = append(report.Cycles, CycleReport{
			Cycle:       fit.Cycle,
			TrainSize:   snap.TrainSize(),
			Duration:    fit.Duration,
			BestModel:   fit.Best.Model,
			BestAcc:     fit.Best.ValAcc,
			ReOptimized: fit.ReOptimized,
		})
		report.FinalBest = fit.Best
	}
	report.Total = time.Since(started)
	report.Init = ms.InitStats()
	return report, nil
}
