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
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/obs"
	"nautilus/internal/obs/calib"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

func main() {
	workload := flag.String("workload", "FTR-3", "workload name (FTR-1, FTR-2, FTR-3, ATR, FTU)")
	approach := flag.String("approach", string(core.Nautilus), "approach: "+core.ApproachNames())
	cycles := flag.Int("cycles", 0, "limit labeling cycles (0 = workload default)")
	seed := flag.Int64("seed", 1, "random seed for data and shuffling")
	workDir := flag.String("workdir", "", "working directory (default: temp dir)")
	compare := flag.Bool("compare", false, "run current_practice AND nautilus, reporting speedup and accuracy parity")
	tracePath := flag.String("trace", "", "write a span trace to this file")
	traceFormat := flag.String("trace-format", obs.FormatChrome, "trace file format: chrome (chrome://tracing / perfetto) or jsonl")
	metricsPath := flag.String("metrics", "", "write metrics + conformance JSON to this file")
	calibration := flag.String("calibration", "", "plan against measured constants from this calibration file")
	tuneTable := flag.String("tune-table", "", "dispatch tensor kernels on this autotuned schedule table (make tune)")
	calibrateOut := flag.String("calibrate-out", "", "fit a hardware calibration from this run's trace and write it here")
	listen := flag.String("listen", "", "serve live telemetry over HTTP on this address (/metrics, /conformance, /spans, /debug/pprof/)")
	livePath := flag.String("live", "", "append periodic live-telemetry snapshots (JSONL) to this file")
	driftWarn := flag.Float64("drift-warn", 1.5, "flag conformance groups whose actual/predicted time ratio falls outside [1/t, t]; <= 1 disables")
	fuser := flag.String("fuser", opt.FuserGreedy, "fusion strategy: greedy (Algorithm 1) or enum (cost-based partition search)")
	fuseBudget := flag.Int("fuse-budget", 0, "enum fuser state budget (candidate groups profiled before falling back to greedy; 0 = default)")
	flag.Parse()

	if *compare {
		runCompare(*workload, *seed, *cycles)
		return
	}

	spec, err := workloads.ByName(*workload)
	fatalIf(err)
	fmt.Printf("building %s at mini scale (%d candidate models)...\n", spec.Name, spec.NumModels())
	inst, err := spec.Build(workloads.Mini, experiments.MiniHardware())
	fatalIf(err)

	dir := *workDir
	if dir == "" {
		dir, err = os.MkdirTemp("", "nautilus-run-")
		fatalIf(err)
		defer os.RemoveAll(dir)
	}
	cfg := core.DefaultConfig(dir)
	cfg.Approach = core.Approach(*approach)
	cfg.HW = experiments.MiniHardware()
	cfg.Seed = *seed
	cfg.MaxRecords = 600
	if *tracePath != "" || *metricsPath != "" {
		tr, err := obs.OpenTracer(*tracePath, *traceFormat)
		fatalIf(err)
		cfg.Obs = tr
	}
	if cfg.Obs == nil && (*calibrateOut != "" || *listen != "" || *livePath != "") {
		// Calibration fitting and live export need the tracer's metering even
		// when no trace file was requested; a sinkless tracer carries it.
		cfg.Obs = obs.New(nil)
	}
	cfg.CalibrationPath = *calibration
	cfg.TuneTablePath = *tuneTable
	cfg.DriftWarn = *driftWarn
	cfg.Fuser = *fuser
	cfg.FuseStateBudget = *fuseBudget

	var exporter *obs.Exporter
	if *listen != "" || *livePath != "" {
		exporter, err = obs.StartExporter(cfg.Obs, obs.ExporterConfig{SnapshotPath: *livePath, Listen: *listen})
		fatalIf(err)
		if *listen != "" {
			fmt.Printf("live telemetry on http://%s (/metrics /conformance /spans /debug/pprof/)\n", exporter.Addr())
		}
	}

	report, err := core.Run(inst, cfg, *seed, *cycles)
	if exporter != nil {
		fatalIf(exporter.Close())
		if *livePath != "" {
			fmt.Printf("live snapshots written to %s\n", *livePath)
		}
	}
	fatalIf(err)

	fmt.Printf("\n%s on %s (mini scale, real training)\n", report.Approach, report.Workload)
	if report.TuneCoverage != "" {
		fmt.Printf("kernel schedules from %s: %s\n", *tuneTable, report.TuneCoverage)
	}
	if report.Init != nil {
		fmt.Printf("optimizer: %d materialized expressions, %d groups, solve %v\n",
			report.Init.Materialized, report.Init.Groups, report.Init.OptimizeTime)
		if fu := report.Init.Fuse; fu.Strategy == opt.FuserEnum {
			fmt.Printf("fusion: %s | %d DP states, %d memo hits, %d bound prunings, %d fallbacks\n",
				fu.Strategy, fu.StatesExplored, fu.MemoHits, fu.BoundPrunings, fu.Fallbacks)
		}
	}
	fmt.Printf("%-6s %10s %12s %9s  %s\n", "cycle", "train-size", "duration", "best-acc", "best model")
	for _, c := range report.Cycles {
		fmt.Printf("%-6d %10d %12v %9.4f  %s\n", c.Cycle, c.TrainSize, c.Duration.Round(1e6), c.BestAcc, c.BestModel)
	}
	// Model the totals with the same constants the planner used: the
	// calibrated hardware when a calibration file was given.
	hw, err := profile.LoadHardware(cfg.CalibrationPath, cfg.HW)
	fatalIf(err)
	fmt.Printf("\ntotal: %v | compute %.1f GFLOPs (%.1fs modeled) | disk read %.1f MB (%.1fs modeled) written %.1f MB\n",
		report.Total.Round(1e6),
		float64(report.Metrics.ComputeFLOPs)/1e9,
		hw.Seconds(report.Metrics.ComputeFLOPs),
		float64(report.Metrics.Disk.BytesRead())/1e6,
		hw.IOSeconds(report.Metrics.Disk.BytesRead()),
		float64(report.Metrics.Disk.BytesWritten())/1e6)
	fmt.Printf("final best: %s (accuracy %.4f)\n", report.FinalBest.Model, report.FinalBest.ValAcc)

	if cfg.Obs != nil {
		fmt.Println()
		fatalIf(obs.WriteSummary(os.Stdout, cfg.Obs, 12))
		if *metricsPath != "" {
			fatalIf(obs.WriteMetricsFile(*metricsPath, cfg.Obs))
			fmt.Printf("metrics JSON written to %s\n", *metricsPath)
		}
		if *calibrateOut != "" {
			c, err := calib.FromTracer(cfg.Obs, fmt.Sprintf("nautilus-run %s %s", *workload, *approach))
			fatalIf(err)
			fatalIf(profile.SaveCalibration(*calibrateOut, c))
			fmt.Printf("calibration written to %s: compute %.3g FLOP/s (%d samples, %d trimmed), read %.3g B/s, write %.3g B/s\n",
				*calibrateOut, c.Compute.Throughput, c.Compute.Samples, c.Compute.Trimmed,
				c.Read.Throughput, c.Write.Throughput)
		}
		fatalIf(cfg.Obs.Close())
		if *tracePath != "" {
			fmt.Printf("trace written to %s (%s format)\n", *tracePath, *traceFormat)
		}
	}
}

// runCompare executes the workload under both Current Practice and
// Nautilus with identical seeds, printing the wall-clock speedup and the
// per-cycle accuracy parity (Section 5.2 in miniature).
func runCompare(workload string, seed int64, cycles int) {
	spec, err := workloads.ByName(workload)
	fatalIf(err)
	fmt.Printf("comparing approaches on %s at mini scale (%d models)...\n\n", spec.Name, spec.NumModels())
	reports := map[core.Approach]*core.RunReport{}
	for _, approach := range []core.Approach{core.CurrentPractice, core.Nautilus} {
		inst, err := spec.Build(workloads.Mini, experiments.MiniHardware())
		fatalIf(err)
		dir, err := os.MkdirTemp("", "nautilus-compare-")
		fatalIf(err)
		cfg := core.DefaultConfig(dir)
		cfg.Approach = approach
		cfg.HW = experiments.MiniHardware()
		cfg.Seed = seed
		cfg.MaxRecords = 600
		report, err := core.Run(inst, cfg, seed, cycles)
		_ = os.RemoveAll(dir) // best-effort scratch cleanup
		fatalIf(err)
		reports[approach] = report
		fmt.Printf("%-18s total %v\n", approach, report.Total.Round(1e6))
	}
	cp, nt := reports[core.CurrentPractice], reports[core.Nautilus]
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
		fmt.Fprintf(os.Stderr, "nautilus-run: plan rejected: kind=%s", pe.Kind)
		if pe.Group != "" {
			fmt.Fprintf(os.Stderr, " group=%s", pe.Group)
		}
		if pe.Model != "" {
			fmt.Fprintf(os.Stderr, " model=%s", pe.Model)
		}
		if pe.Node != "" {
			fmt.Fprintf(os.Stderr, " node=%s", pe.Node)
		}
		fmt.Fprintln(os.Stderr)
	}
	os.Exit(1)
}
