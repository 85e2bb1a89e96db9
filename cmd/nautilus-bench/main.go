// Command nautilus-bench regenerates the paper's tables and figures
// (Section 5). Paper-scale experiments replay real optimizer decisions on
// the cost-clock simulator; fig7 runs real mini-scale training.
//
// Usage:
//
//	nautilus-bench -exp all
//	nautilus-bench -exp fig6a
//	nautilus-bench -exp fig7 -fig7lrs 3 -fig7cycles 5
//	nautilus-bench -exp tune -tune-out TUNE_table.json
//
// An unknown -exp name exits 2. Timing and regression gating live in the
// ./bench ledger (go run ./bench) and the packages' go test benchmarks, not
// here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
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
	fig7LRs    = flag.Int("fig7lrs", 2, "learning rates per strategy in fig7's real-training run")
	fig7Cycles = flag.Int("fig7cycles", 4, "labeling cycles in fig7's real-training run")
	tuneOut    = flag.String("tune-out", "", "write the tune experiment's schedule table to this file")
)

// runner executes one experiment and prints its report.
type runner func() error

// report adapts an experiment to a runner: compute, then render.
func report[T any](compute func() (T, error), print func(io.Writer, T) error) runner {
	return func() error {
		v, err := compute()
		if err != nil {
			return err
		}
		return print(os.Stdout, v)
	}
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

func runTune() error {
	t, err := tune.Tune(tune.DefaultCases(), tune.Options{
		Source: fmt.Sprintf("nautilus-bench -exp tune (%s/%s)", runtime.GOOS, runtime.GOARCH),
		Log: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	if *tuneOut != "" {
		if err := tune.Save(*tuneOut, t); err != nil {
			return err
		}
		fmt.Printf("schedule table written to %s (%d entries)\n", *tuneOut, len(t.Entries))
	}
	return nil
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
	{"tune", runTune},
	{"calib", report(experiments.Calib, experiments.PrintCalib)},
}

// fatal reports a setup error and exits 1.
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
		case "approach", "disk-gb", "mem-gb", "max-records", "calibration":
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

	for _, e := range experimentTable {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
