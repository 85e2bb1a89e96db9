// Command nautilus-plan shows the optimizer's decisions for a workload:
// the chosen materialized set V, the fused training groups, their reuse
// plans and estimated memory, plus the theoretical speedup bound.
//
// Usage:
//
//	nautilus-plan -workload FTR-2
//	nautilus-plan -workload FTU -disk-gb 5 -mem-gb 4 -approach nautilus_no_fuse
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/opt"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

func main() {
	cfg := core.DefaultConfig("")
	cfg.MaxRecords = 5000
	cfg.RegisterFlags(flag.CommandLine)
	workload := flag.String("workload", "FTR-2", "workload name (FTR-1, FTR-2, FTR-3, ATR, FTU)")
	scale := flag.String("scale", "paper", "model scale: paper or mini")
	dot := flag.Bool("dot", false, "emit the first group's reuse plan as Graphviz DOT and exit")
	summary := flag.Bool("summary", false, "print the first candidate model's layer table and exit")
	flag.Parse()

	spec, err := workloads.ByName(*workload)
	fatalIf(err)

	sc := workloads.Paper
	if *scale == "mini" {
		sc = workloads.Mini
		cfg.HW = experiments.MiniHardware()
	}
	// Resolved here rather than left to PlanWorkload: the candidates are
	// profiled against the calibrated constants.
	tuning, err := cfg.Resolve()
	fatalIf(err)
	if cfg.CalibrationPath != "" {
		fmt.Printf("calibrated constants from %s: %.3g FLOP/s, %.3g disk B/s\n",
			cfg.CalibrationPath, cfg.HW.FLOPSThroughput, cfg.HW.DiskThroughput)
	}
	if tuning != "" {
		fmt.Printf("kernel schedules from %s: %s\n", cfg.TuneTablePath, tuning)
	}
	fmt.Printf("building %s at %s scale (%d candidate models)...\n", spec.Name, sc, spec.NumModels())
	inst, err := spec.Build(sc, cfg.HW)
	fatalIf(err)

	wp, err := core.PlanWorkload(inst.Items, inst.MM, cfg, cfg.MaxRecords)
	fatalIf(err)

	if *dot {
		fmt.Print(opt.PlanDOT(wp.Groups[0].Plan))
		return
	}
	if *summary {
		fmt.Print(inst.Items[0].Model.Summary())
		return
	}

	fmt.Printf("\napproach: %s   B_disk: %.1f GB   B_mem: %.1f GB   r: %d\n",
		cfg.Approach, float64(cfg.DiskBudgetBytes)/(1<<30), float64(cfg.MemBudgetBytes)/(1<<30), cfg.MaxRecords)
	fmt.Printf("theoretical speedup (Eq. 11): %.2fX\n", experiments.TheoreticalSpeedup(inst))
	fmt.Printf("optimizer time: %v (%d search nodes)\n", wp.Stats.OptimizeTime, wp.Stats.MatSolveNodes)
	if fu := wp.Stats.Fuse; fu.PairsEvaluated > 0 {
		fmt.Printf("fusion (Algorithm 1): %d rounds, %d groups built, %d rejected\n", fu.Rounds, fu.PairsEvaluated, fu.PairsRejected)
	}

	fmt.Printf("\nmaterialized set V: %d expressions, %.2f GB at r records\n",
		wp.Stats.Materialized, float64(wp.Stats.StorageBytes)/float64(1<<30))
	var sigs []string
	for sig := range wp.MatSigs {
		sigs = append(sigs, sig.String())
	}
	sort.Strings(sigs)
	for _, s := range sigs {
		fmt.Printf("  %s\n", s)
	}

	fmt.Printf("\ntraining plan: %d groups\n", len(wp.Groups))
	var total int64
	for i, g := range wp.Groups {
		pruned, computed, loaded := g.Plan.CountActions()
		fmt.Printf("group %2d: %2d models, batch %2d, epochs %2d | %2d computed %2d loaded %2d pruned | %6.1f MFLOPs/record | peak mem %.2f GB\n",
			i+1, len(g.Items), g.BatchSize(), g.Epochs(), computed, loaded, pruned,
			float64(g.Plan.CostPerRecord)/1e6, float64(g.PeakMemBytes)/float64(1<<30))
		for _, it := range g.Items {
			fmt.Printf("          - %s\n", it.Model.Name)
		}
		total += g.Plan.CostPerRecord * int64(g.Epochs())
	}
	fmt.Printf("\nplanned cost: %.1f MFLOPs-equivalent per record per cycle-epoch sum\n", float64(total)/1e6)

	// Compare against the unoptimized cost.
	var cp int64
	for _, it := range inst.Items {
		cp += opt.CurrentPracticePlan(it.Prof).CostPerRecord * int64(it.Epochs)
	}
	fmt.Printf("current practice cost: %.1f MFLOPs-equivalent (plan saves %.1f%%)\n",
		float64(cp)/1e6, 100*(1-float64(total)/float64(cp)))
}

func fatalIf(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "nautilus-plan:", err)
	var pe *verify.PlanError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "nautilus-plan: plan rejected: %s\n", pe.Fields())
	}
	os.Exit(1)
}
