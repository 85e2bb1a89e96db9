package experiments

import (
	"fmt"
	"io"

	"nautilus/internal/core"
	"nautilus/internal/workloads"
)

// Fig6ARow is one workload's bar group in Figure 6(A): total model
// selection time per approach, in minutes, plus speedups over Current
// Practice.
type Fig6ARow struct {
	Workload        string
	CurrentPractice float64
	MatAll          float64
	Nautilus        float64
	FlopsOptimal    float64
	// Speedups over Current Practice.
	MatAllSpeedup   float64
	NautilusSpeedup float64
	OptimalSpeedup  float64
}

// Fig6A reproduces Figure 6(A): total model-selection time for Current
// Practice, MAT-ALL, Nautilus, and FLOPs Optimal across all five
// workloads.
func Fig6A() ([]Fig6ARow, error) {
	var rows []Fig6ARow
	for _, spec := range workloads.All() {
		inst, err := PaperInstance(spec)
		if err != nil {
			return nil, err
		}
		row := Fig6ARow{Workload: spec.Name}
		var cpSec float64
		for _, approach := range []core.Approach{core.CurrentPractice, core.MatAll, core.Nautilus} {
			res, _, err := SimulateApproach(inst, PaperConfig(approach))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", spec.Name, approach, err)
			}
			min := Minutes(res.TotalSec())
			switch approach {
			case core.CurrentPractice:
				row.CurrentPractice = min
				cpSec = res.TotalSec()
			case core.MatAll:
				row.MatAll = min
			case core.Nautilus:
				row.Nautilus = min
			}
		}
		row.FlopsOptimal = Minutes(cpSec / TheoreticalSpeedup(inst))
		row.MatAllSpeedup = row.CurrentPractice / row.MatAll
		row.NautilusSpeedup = row.CurrentPractice / row.Nautilus
		row.OptimalSpeedup = row.CurrentPractice / row.FlopsOptimal
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig6A renders Figure 6(A) rows.
func PrintFig6A(w io.Writer, rows []Fig6ARow) error {
	p := &printer{w: w}
	p.printf("Figure 6(A): total model selection time (minutes) and speedup over Current Practice\n")
	p.printf("%-8s %14s %18s %18s %18s\n", "workload", "current(min)", "mat-all", "nautilus", "flops-optimal")
	for _, r := range rows {
		p.printf("%-8s %14.1f %11.1f (%.1fX) %11.1f (%.1fX) %11.1f (%.1fX)\n",
			r.Workload, r.CurrentPractice,
			r.MatAll, r.MatAllSpeedup,
			r.Nautilus, r.NautilusSpeedup,
			r.FlopsOptimal, r.OptimalSpeedup)
	}
	return p.err
}

// Fig6BResult reproduces Figure 6(B): FTR-2 model-selection time by cycle
// for Current Practice and Nautilus, plus the workload-initialization
// breakdown of Section 5.1.
type Fig6BResult struct {
	InitCurrentPracticeMin float64
	InitNautilusMin        float64
	// Nautilus init shares (the 63/12/3/21% split of Section 5.1).
	InitShares struct {
		OriginalCheckpoints float64
		Profile             float64
		Optimize            float64
		PlanCheckpoints     float64
	}
	// Per-cycle seconds.
	CurrentPractice []float64
	Nautilus        []float64
	CycleSpeedups   []float64
}

// Fig6B reproduces Figure 6(B) on FTR-2.
func Fig6B() (*Fig6BResult, error) {
	inst, err := PaperInstance(workloads.FTR2())
	if err != nil {
		return nil, err
	}
	cp, _, err := SimulateApproach(inst, PaperConfig(core.CurrentPractice))
	if err != nil {
		return nil, err
	}
	nt, _, err := SimulateApproach(inst, PaperConfig(core.Nautilus))
	if err != nil {
		return nil, err
	}
	out := &Fig6BResult{
		InitCurrentPracticeMin: Minutes(cp.Init.Total()),
		InitNautilusMin:        Minutes(nt.Init.Total()),
	}
	total := nt.Init.Total()
	out.InitShares.OriginalCheckpoints = nt.Init.OriginalCheckpointsSec / total
	out.InitShares.Profile = nt.Init.ProfileSec / total
	out.InitShares.Optimize = nt.Init.OptimizeSec / total
	out.InitShares.PlanCheckpoints = nt.Init.PlanCheckpointsSec / total
	for i := range cp.Cycles {
		out.CurrentPractice = append(out.CurrentPractice, cp.Cycles[i].Total())
		out.Nautilus = append(out.Nautilus, nt.Cycles[i].Total())
		out.CycleSpeedups = append(out.CycleSpeedups, cp.Cycles[i].Total()/nt.Cycles[i].Total())
	}
	return out, nil
}

// PrintFig6B renders Figure 6(B).
func PrintFig6B(w io.Writer, r *Fig6BResult) error {
	p := &printer{w: w}
	p.printf("Figure 6(B): FTR-2 per-cycle model selection time\n")
	p.printf("workload init: current practice %.1f min, nautilus %.1f min\n",
		r.InitCurrentPracticeMin, r.InitNautilusMin)
	p.printf("nautilus init shares: checkpoints %.0f%%, profiling %.0f%%, optimizing %.0f%%, plan checkpoints %.0f%%\n",
		100*r.InitShares.OriginalCheckpoints, 100*r.InitShares.Profile,
		100*r.InitShares.Optimize, 100*r.InitShares.PlanCheckpoints)
	p.printf("%-6s %14s %12s %9s\n", "cycle", "current(s)", "nautilus(s)", "speedup")
	for i := range r.CurrentPractice {
		p.printf("%-6d %14.0f %12.0f %8.1fX\n", i+1, r.CurrentPractice[i], r.Nautilus[i], r.CycleSpeedups[i])
	}
	return p.err
}

// Fig6CRow is one labeling-cost point of Figure 6(C): total workload time
// (labeling + model selection) for FTR-2.
type Fig6CRow struct {
	SecPerLabel     float64
	CurrentPractice float64 // minutes
	Nautilus        float64 // minutes
	Speedup         float64
}

// Fig6C reproduces Figure 6(C): total FTR-2 time as per-record labeling
// cost varies from multi-labeler (0.5 s) to single-labeler (8 s) rates.
func Fig6C() ([]Fig6CRow, error) {
	inst, err := PaperInstance(workloads.FTR2())
	if err != nil {
		return nil, err
	}
	cp, _, err := SimulateApproach(inst, PaperConfig(core.CurrentPractice))
	if err != nil {
		return nil, err
	}
	nt, _, err := SimulateApproach(inst, PaperConfig(core.Nautilus))
	if err != nil {
		return nil, err
	}
	labeled := 10 * 500 // records labeled across the run
	var rows []Fig6CRow
	for _, spl := range []float64{0.5, 1, 2, 4, 8} {
		labelSec := spl * float64(labeled)
		row := Fig6CRow{
			SecPerLabel:     spl,
			CurrentPractice: Minutes(cp.TotalSec() + labelSec),
			Nautilus:        Minutes(nt.TotalSec() + labelSec),
		}
		row.Speedup = row.CurrentPractice / row.Nautilus
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig6C renders Figure 6(C).
func PrintFig6C(w io.Writer, rows []Fig6CRow) error {
	p := &printer{w: w}
	p.printf("Figure 6(C): FTR-2 total time including data labeling\n")
	p.printf("%-12s %14s %12s %9s\n", "sec/label", "current(min)", "nautilus", "speedup")
	for _, r := range rows {
		p.printf("%-12.1f %14.1f %12.1f %8.1fX\n", r.SecPerLabel, r.CurrentPractice, r.Nautilus, r.Speedup)
	}
	return p.err
}
