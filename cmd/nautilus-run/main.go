// Command nautilus-run executes a workload end to end with real training
// at mini scale: the simulated labeler releases batches cycle by cycle and
// the chosen approach performs model selection over all labeled data.
//
// Usage:
//
//	nautilus-run -workload FTR-3 -approach nautilus
//	nautilus-run -workload FTU -approach current_practice -cycles 4
//	nautilus-run -workload FTR-3 -trace run.trace -metrics run.json
//	nautilus-run -workload FTR-3 -calibrate-out hw.json     # fit measured constants
//	nautilus-run -workload FTR-3 -calibration hw.json       # plan against them
//	nautilus-run -workload FTR-3 -listen localhost:6060 -live live.jsonl
//	nautilus-run -workload FTR-3 -compare -metrics compare.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/obs"
	"nautilus/internal/obs/calib"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

// options are the command's own flags, beside the planner's and the
// telemetry's.
type options struct {
	workload, calibrateOut string
	cycles                 int
	compare                bool
}

// registerFlags declares every nautilus-run flag on fs: the planner's, bound
// to cfg, the telemetry's, bound to tel, and the command's own.
func registerFlags(fs *flag.FlagSet, cfg *core.Config, tel *obs.Telemetry) *options {
	cfg.RegisterFlags(fs)
	tel.RegisterFlags(fs)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "FTR-3", "workload name (FTR-1, FTR-2, FTR-3, ATR, FTU)")
	fs.IntVar(&o.cycles, "cycles", 0, "limit labeling cycles (0 = workload default)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed for data and shuffling")
	fs.StringVar(&cfg.WorkDir, "workdir", "", "working directory (default: temp dir)")
	fs.BoolVar(&o.compare, "compare", false, "run current_practice AND nautilus, reporting speedup and accuracy parity")
	fs.StringVar(&o.calibrateOut, "calibrate-out", "", "fit a hardware calibration from this run's trace and write it here")
	return o
}

func main() {
	cfg := core.DefaultConfig("")
	cfg.HW = experiments.MiniHardware()
	cfg.MaxRecords = 600
	var tel obs.Telemetry
	o := registerFlags(flag.CommandLine, &cfg, &tel)
	flag.Parse()

	if o.compare {
		if ignored := compareIgnores(flag.CommandLine); len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "nautilus-run: %s does not apply with -compare: it runs both approaches at the mini-scale runner's fixed settings\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
		fatalIf(tel.Open(false, os.Stdout))
		runCompare(o.workload, cfg.Seed, o.cycles, tel.Tracer)
		if tel.Tracer != nil {
			fmt.Println()
			fatalIf(obs.WriteSummary(os.Stdout, tel.Tracer.Report(), 12))
			fatalIf(tel.Close(os.Stdout))
		}
		return
	}

	spec, err := workloads.ByName(o.workload)
	fatalIf(err)
	fmt.Printf("building %s at mini scale (%d candidate models)...\n", spec.Name, spec.NumModels())
	inst, err := spec.Build(workloads.Mini, cfg.HW)
	fatalIf(err)
	// A bad -calibration or -tune-table file fails here, before the run,
	// and the totals below are modeled with the calibrated constants.
	_, err = cfg.Resolve()
	fatalIf(err)

	if cfg.WorkDir == "" {
		cfg.WorkDir, err = os.MkdirTemp("", "nautilus-run-")
		fatalIf(err)
		defer os.RemoveAll(cfg.WorkDir)
	}
	// Calibration fitting needs the tracer's metering even when no
	// telemetry flag asked for one.
	fatalIf(tel.Open(o.calibrateOut != "", os.Stdout))
	cfg.Obs = tel.Tracer

	report, err := core.Run(inst, cfg, cfg.Seed, o.cycles)
	fatalIf(err)

	fmt.Printf("\n%s on %s (mini scale, real training)\n", report.Approach, report.Workload)
	if report.TuneCoverage != "" {
		fmt.Printf("kernel schedules from %s: %s\n", cfg.TuneTablePath, report.TuneCoverage)
	}
	if report.Init != nil {
		fmt.Printf("optimizer: %d materialized expressions, %d groups, solve %v\n",
			report.Init.Materialized, report.Init.Groups, report.Init.OptimizeTime)
	}
	fmt.Printf("%-6s %10s %12s %9s  %s\n", "cycle", "train-size", "duration", "best-acc", "best model")
	for _, c := range report.Cycles {
		fmt.Printf("%-6d %10d %12v %9.4f  %s\n", c.Cycle, c.TrainSize, c.Duration.Round(1e6), c.BestAcc, c.BestModel)
	}
	fmt.Printf("\ntotal: %v | compute %.1f GFLOPs (%.1fs modeled) | disk read %.1f MB (%.1fs modeled) written %.1f MB\n",
		report.Total.Round(1e6),
		float64(report.Metrics.ComputeFLOPs)/1e9,
		cfg.HW.Seconds(report.Metrics.ComputeFLOPs),
		float64(report.Metrics.Disk.BytesRead())/1e6,
		cfg.HW.IOSeconds(report.Metrics.Disk.BytesRead()),
		float64(report.Metrics.Disk.BytesWritten())/1e6)
	fmt.Printf("final best: %s (accuracy %.4f)\n", report.FinalBest.Model, report.FinalBest.ValAcc)

	if tel.Tracer != nil {
		fmt.Println()
		fatalIf(obs.WriteSummary(os.Stdout, tel.Tracer.Report(), 12))
		if o.calibrateOut != "" {
			c, err := calib.FromTracer(tel.Tracer, fmt.Sprintf("nautilus-run %s %s", o.workload, cfg.Approach))
			fatalIf(err)
			fatalIf(profile.SaveCalibration(o.calibrateOut, c))
			fmt.Printf("calibration written to %s: compute %.3g FLOP/s (%d samples, %d trimmed), read %.3g B/s, write %.3g B/s\n",
				o.calibrateOut, c.Compute.Throughput, c.Compute.Samples, c.Compute.Trimmed,
				c.Read.Throughput, c.Write.Throughput)
		}
		fatalIf(tel.Close(os.Stdout))
	}
}

// compareFlags are the flags -compare honours: experiments.RunMini fixes
// the approach, budgets, r, hardware and work directory itself.
var compareFlags = map[string]bool{
	"compare": true, "workload": true, "seed": true, "cycles": true,
	"trace": true, "metrics": true, "live": true, "listen": true,
}

// compareIgnores lists, as "-name", the flags set on fs that -compare
// would ignore.
func compareIgnores(fs *flag.FlagSet) []string {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !compareFlags[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	return ignored
}

// runCompare executes the workload under both Current Practice and
// Nautilus through experiments.RunMini, the runner behind Figure 7,
// printing the wall-clock speedup and the per-cycle accuracy parity
// (Section 5.2 in miniature). tr, when non-nil, instruments both runs.
func runCompare(workload string, seed int64, cycles int, tr *obs.Tracer) {
	spec, err := workloads.ByName(workload)
	fatalIf(err)
	fmt.Printf("comparing approaches on %s at mini scale (%d models)...\n\n", spec.Name, spec.NumModels())
	reports, err := experiments.RunMini(spec, []core.Approach{core.CurrentPractice, core.Nautilus}, seed, cycles, tr)
	fatalIf(err)
	for _, report := range reports {
		fmt.Printf("%-18s total %v\n", report.Approach, report.Total.Round(1e6))
	}
	cp, nt := reports[0], reports[1]
	fmt.Printf("\nspeedup: %.2fX\n", cp.Total.Seconds()/nt.Total.Seconds())
	fmt.Printf("%-6s %18s %12s\n", "cycle", "current-best-acc", "nautilus")
	for i := range cp.Cycles {
		fmt.Printf("%-6d %18.4f %12.4f\n", i+1, cp.Cycles[i].BestAcc, nt.Cycles[i].BestAcc)
	}
}

func fatalIf(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "nautilus-run:", err)
	var pe *verify.PlanError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "nautilus-run: plan rejected: %s\n", pe.Fields())
	}
	os.Exit(1)
}
