// Command nautilus-bench regenerates the paper's tables and figures
// (Section 5). Paper-scale experiments replay real optimizer decisions on
// the cost-clock simulator; fig7 runs real mini-scale training.
//
// Usage:
//
//	nautilus-bench -exp all
//	nautilus-bench -exp fig6a
//	nautilus-bench -exp fig7 -fig7lrs 3 -fig7cycles 5
//	nautilus-bench -exp obs,replan,lint -out .    (writes ./BENCH_<exp>.json)
//	nautilus-bench -exp obs,replan,calib -baseline BENCH_baseline.json
//	nautilus-bench -exp obs,replan,calib -write-baseline BENCH_baseline.json
//
// An unknown -exp name exits 2.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/obs"
	"nautilus/internal/tensor/tune"
	"nautilus/internal/workloads"
)

// Flags the experiment runners below read; the rest are local to main.
var (
	fig7LRs     = flag.Int("fig7lrs", 2, "learning rates per strategy in fig7's real-training run")
	fig7Cycles  = flag.Int("fig7cycles", 4, "labeling cycles in fig7's real-training run")
	obsRuns     = flag.Int("obsruns", 5, "individually timed trainer passes per mode in the obs overhead experiment")
	kernelsRuns = flag.Int("kernelsruns", 3, "averaged training passes per regime in the kernels experiment")
	tuneOut     = flag.String("tune-out", "", "write the tune experiment's schedule table to this file")
)

// runner executes one experiment and prints its report. A non-nil result is
// the experiment's machine-readable record (written under -out); gated are
// the metrics it contributes toward -baseline / -write-baseline.
type runner func() (result any, gated []experiments.BaselineMetric, err error)

// record adapts an experiment to a runner: compute, then render. With
// metrics set it is a benchmark: the result is also written under -out and
// gated against the baseline.
func record[T any](compute func() (T, error), print func(io.Writer, T) error, metrics func(T) []experiments.BaselineMetric) runner {
	return func() (any, []experiments.BaselineMetric, error) {
		v, err := compute()
		if err != nil {
			return nil, nil, err
		}
		if metrics == nil {
			return nil, nil, print(os.Stdout, v)
		}
		return v, metrics(v), print(os.Stdout, v)
	}
}

// report is record for an experiment that only prints.
func report[T any](compute func() (T, error), print func(io.Writer, T) error) runner {
	return record(compute, print, nil)
}

// fig7 runs the real-training figure; secPerLabel 0 keeps the default.
func fig7(label string, secPerLabel float64) runner {
	return report(func() (*experiments.Fig7Result, error) {
		cfg := experiments.DefaultFig7Config()
		cfg.LRs = *fig7LRs
		cfg.Cycles = *fig7Cycles
		if secPerLabel > 0 {
			cfg.SecPerLabel = secPerLabel
		}
		return experiments.Fig7(cfg)
	}, func(w io.Writer, r *experiments.Fig7Result) error {
		return experiments.PrintFig7(w, r, label)
	})
}

func runTune() (any, []experiments.BaselineMetric, error) {
	t, err := tune.Tune(tune.DefaultCases(), tune.Options{
		Source: fmt.Sprintf("nautilus-bench -exp tune (%s/%s)", runtime.GOOS, runtime.GOARCH),
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if *tuneOut != "" {
		if err := tune.Save(*tuneOut, t); err != nil {
			return nil, nil, err
		}
		fmt.Printf("schedule table written to %s (%d entries)\n", *tuneOut, len(t.Entries))
	}
	return nil, nil, nil
}

// experimentTable lists every experiment in the order `-exp all` runs them.
var experimentTable = []struct {
	name string
	run  runner
}{
	{"table3", report(experiments.Table3, experiments.PrintTable3)},
	{"fig6a", report(experiments.Fig6A, experiments.PrintFig6A)},
	{"fig6b", report(experiments.Fig6B, experiments.PrintFig6B)},
	{"fig6c", report(experiments.Fig6C, experiments.PrintFig6C)},
	{"fig7", fig7("(A)", 0)},
	{"fig7b", fig7("(B)", 0.2)}, // mini-scale analogue of 4 s/label
	{"fig8", report(experiments.Fig8, experiments.PrintFig8)},
	{"fig9", report(experiments.Fig9, experiments.PrintFig9)},
	{"fig10a", report(experiments.Fig10A, experiments.PrintFig10A)},
	{"fig10b", report(experiments.Fig10B, experiments.PrintFig10B)},
	{"fig11", report(experiments.Fig11, experiments.PrintFig11)},
	{"hwsweep", report(experiments.HardwareSweep, experiments.PrintHardwareSweep)},
	{"solver", report(func() (*experiments.SolverStats, error) {
		return experiments.CompareSolvers(workloads.FTR3())
	}, experiments.PrintSolverStats)},
	{"obs", record(func() (*experiments.ObsOverheadResult, error) {
		return experiments.ObsOverhead(*obsRuns)
	}, experiments.PrintObsOverhead, experiments.ObsBaselineMetrics)},
	{"replan", record(experiments.Replan, experiments.PrintReplan, experiments.ReplanBaselineMetrics)},
	{"tune", runTune},
	{"kernels", record(func() (*experiments.KernelsResult, error) {
		return experiments.Kernels(*kernelsRuns)
	}, experiments.PrintKernels, experiments.KernelsBaselineMetrics)},
	{"lint", record(experiments.LintBench, experiments.PrintLintBench, experiments.LintBaselineMetrics)},
	{"calib", record(experiments.Calib, experiments.PrintCalib, experiments.CalibBaselineMetrics)},
	{"fusion", record(experiments.Fusion, experiments.PrintFusion, experiments.FusionBaselineMetrics)},
}

// writeJSON writes v as indented JSON at path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// fatal reports a setup or gate error and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
	os.Exit(1)
}

func main() {
	names := make([]string, len(experimentTable))
	known := map[string]bool{"all": true}
	for i, e := range experimentTable {
		names[i] = e.name
		known[e.name] = true
	}
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, " ")+" all")
	outDir := flag.String("out", "", "write the result of each benchmark experiment that has one (obs replan kernels lint calib fusion) to <dir>/BENCH_<exp>.json")
	baselinePath := flag.String("baseline", "", "compare this run's gated metrics against this baseline file; exit nonzero on regression")
	writeBaseline := flag.String("write-baseline", "", "write this run's gated metrics as a new baseline file")
	// Experiments fix their own approach, budgets, r and hardware; of the
	// planner's flags they take the fusion override (default: each
	// experiment's own strategy) and the schedule table.
	cfg := core.Config{}
	cfg.RegisterFlags(flag.CommandLine)
	var tel obs.Telemetry
	tel.RegisterFlags(flag.CommandLine)
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "approach", "disk-gb", "mem-gb", "max-records", "calibration", "drift-warn":
			fmt.Fprintf(os.Stderr, "nautilus-bench: -%s does not apply: experiments set it themselves\n", f.Name)
			os.Exit(2)
		}
	})

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !known[name] {
			fmt.Fprintf(os.Stderr, "nautilus-bench: unknown experiment %q (want %s or all)\n", name, strings.Join(names, " "))
			os.Exit(2)
		}
		selected[name] = true
	}
	experiments.SetFuser(cfg.Fuser, cfg.FuseStateBudget)
	tuning, err := cfg.Resolve()
	if err != nil {
		fatal(err)
	}
	if tuning != "" {
		fmt.Printf("kernel schedules from %s: %s\n", cfg.TuneTablePath, tuning)
	}

	if err := tel.Open(false, os.Stdout); err != nil {
		fatal(err)
	}
	experiments.SetObs(tel.Tracer)
	defer func() {
		if err := tel.Close(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
		}
	}()

	// Metrics the gated experiments contribute toward -baseline /
	// -write-baseline.
	var gated []experiments.BaselineMetric
	for _, e := range experimentTable {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		result, metrics, err := e.run()
		if err == nil && result != nil && *outDir != "" {
			path := filepath.Join(*outDir, "BENCH_"+e.name+".json")
			if err = writeJSON(path, result); err == nil {
				fmt.Printf("%s JSON written to %s\n", e.name, path)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		gated = append(gated, metrics...)
		fmt.Println()
	}

	if *writeBaseline != "" {
		if err := experiments.WriteBaseline(*writeBaseline, gated); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline written to %s (%d metrics)\n", *writeBaseline, len(gated))
	}
	if *baselinePath != "" {
		base, err := experiments.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		comparisons, regressions := experiments.CompareBaseline(base, gated)
		if err := experiments.PrintBaselineComparison(os.Stdout, comparisons, regressions); err != nil {
			fatal(err)
		}
		if regressions > 0 {
			// Exits without closing the telemetry: a failing gate is a CI
			// stop, not a clean report.
			os.Exit(1)
		}
	}
}
