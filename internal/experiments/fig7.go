package experiments

import (
	"io"

	"nautilus/internal/core"
	"nautilus/internal/obs"
	"nautilus/internal/workloads"
)

// Fig7Config sizes the real-training learning-curve experiment. The
// default (zero value → DefaultFig7Config) trims the FTR-2 grid so the
// experiment runs in about a minute on a laptop CPU; pass larger values to
// approach the full 24-model workload.
type Fig7Config struct {
	// LRs per strategy (2 strategies are always used).
	LRs int
	// Cycles of labeling + model selection (0: the workload's whole
	// schedule).
	Cycles int
	// SecPerLabel adds simulated human labeling time per record
	// (Figure 7B); 0 reproduces Figure 7A.
	SecPerLabel float64
	Seed        int64
	// Obs, when set, instruments both approaches' runs; defaults to the
	// package tracer installed via SetObs.
	Obs *obs.Tracer
}

// DefaultFig7Config returns the trimmed default.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{LRs: 2, Cycles: 4, Seed: 11}
}

// Fig7Point is one learning-curve sample: the best validation accuracy
// available after the given elapsed workload time.
type Fig7Point struct {
	Cycle      int
	ElapsedSec float64
	BestAcc    float64
}

// Fig7Result holds both curves.
type Fig7Result struct {
	CurrentPractice []Fig7Point
	Nautilus        []Fig7Point
	// Speedup is total CP time / total Nautilus time.
	Speedup float64
}

// Fig7 reproduces Figure 7 in miniature with *real* training: core.Run
// drives the same evolving-data loop under Current Practice and Nautilus,
// and each cycle's elapsed time adds the simulated labeling time to its
// Fit. Both curves reach the same accuracies cycle by cycle (logically
// equivalent SGD, §5.2); Nautilus reaches them faster.
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	if cfg.LRs == 0 {
		cfg = DefaultFig7Config()
	}
	if cfg.Obs == nil {
		cfg.Obs = obsTracer
	}
	lrs := make([]float64, cfg.LRs)
	for i := range lrs {
		lrs[i] = 5e-5 / float64(i+1)
	}
	base := workloads.FTR2()
	base.Name = "FTR-2-mini"
	base.Strategies = base.Strategies[:2]
	base.BatchSizes = []int{8}
	base.LRs = lrs
	base.Epochs = []int{3}

	reports, err := RunMini(base, []core.Approach{core.CurrentPractice, core.Nautilus}, cfg.Seed, cfg.Cycles, cfg.Obs)
	if err != nil {
		return nil, err
	}
	perCycle, _, _ := (&workloads.Instance{Scale: workloads.Mini}).CycleSchedule()
	var curves [2][]Fig7Point
	var totals [2]float64
	for ai, rep := range reports {
		for _, c := range rep.Cycles {
			totals[ai] += cfg.SecPerLabel*float64(perCycle) + c.Duration.Seconds()
			curves[ai] = append(curves[ai], Fig7Point{Cycle: c.Cycle, ElapsedSec: totals[ai], BestAcc: c.BestAcc})
		}
	}
	return &Fig7Result{CurrentPractice: curves[0], Nautilus: curves[1], Speedup: totals[0] / totals[1]}, nil
}

// PrintFig7 renders both learning curves.
func PrintFig7(w io.Writer, r *Fig7Result, label string) error {
	p := &printer{w: w}
	p.printf("Figure 7%s: best validation accuracy vs elapsed time (real mini-scale training)\n", label)
	p.printf("%-6s %22s %22s\n", "cycle", "current (s → acc)", "nautilus (s → acc)")
	for i := range r.CurrentPractice {
		cp, nt := r.CurrentPractice[i], r.Nautilus[i]
		p.printf("%-6d %12.1f → %6.4f %12.1f → %6.4f\n", cp.Cycle, cp.ElapsedSec, cp.BestAcc, nt.ElapsedSec, nt.BestAcc)
	}
	p.printf("overall speedup: %.1fX\n", r.Speedup)
	return p.err
}
