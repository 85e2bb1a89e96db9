// Command nautilus-bench regenerates the paper's tables and figures
// (Section 5). Paper-scale experiments replay real optimizer decisions on
// the cost-clock simulator; fig7 runs real mini-scale training.
//
// Usage:
//
//	nautilus-bench -exp all
//	nautilus-bench -exp fig6a
//	nautilus-bench -exp fig7 -fig7lrs 3 -fig7cycles 5
//	nautilus-bench -exp obs,replan,calib -baseline BENCH_baseline.json
//	nautilus-bench -exp obs,replan,calib -write-baseline BENCH_baseline.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"nautilus/internal/experiments"
	"nautilus/internal/obs"
	"nautilus/internal/tensor"
	"nautilus/internal/tensor/tune"
	"nautilus/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: table3 fig6a fig6b fig6c fig7 fig7b fig8 fig9 fig10a fig10b fig11 hwsweep solver obs replan kernels tune lint calib fusion all")
	fig7LRs := flag.Int("fig7lrs", 2, "learning rates per strategy in fig7's real-training run")
	fig7Cycles := flag.Int("fig7cycles", 4, "labeling cycles in fig7's real-training run")
	obsRuns := flag.Int("obsruns", 5, "individually timed trainer passes per mode in the obs overhead experiment")
	obsJSON := flag.String("obsjson", "", "write the obs overhead result as JSON to this file")
	replanJSON := flag.String("replanjson", "", "write the replan benchmark result as JSON to this file")
	kernelsRuns := flag.Int("kernelsruns", 3, "averaged training passes per regime in the kernels experiment")
	kernelsJSON := flag.String("kernelsjson", "", "write the kernels benchmark result as JSON to this file")
	tuneTable := flag.String("tune-table", "", "dispatch tensor kernels on this autotuned schedule table (make tune)")
	tuneOut := flag.String("tune-out", "", "write the tune experiment's schedule table to this file")
	lintJSON := flag.String("lintjson", "", "write the lint benchmark result as JSON to this file")
	calibJSON := flag.String("calibjson", "", "write the calibration benchmark result as JSON to this file")
	fusionJSON := flag.String("fusionjson", "", "write the fusion benchmark result as JSON to this file")
	fuser := flag.String("fuser", "", "override the fusion strategy for all experiments: greedy or enum (default: per-experiment)")
	fuseBudget := flag.Int("fuse-budget", 0, "enum fuser state budget override (0 = default)")
	baselinePath := flag.String("baseline", "", "compare this run's gated metrics against this baseline file; exit nonzero on regression")
	writeBaseline := flag.String("write-baseline", "", "write this run's gated metrics as a new baseline file")
	tracePath := flag.String("trace", "", "trace experiment execution spans to this file")
	traceFormat := flag.String("trace-format", obs.FormatChrome, "trace file format: chrome or jsonl")
	metricsPath := flag.String("metrics", "", "write metrics + conformance JSON to this file")
	listen := flag.String("listen", "", "serve live telemetry over HTTP on this address while experiments run")
	flag.Parse()
	experiments.SetFuser(*fuser, *fuseBudget)

	if *tuneTable != "" {
		table, err := tune.Load(*tuneTable)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
		tensor.SetScheduleSource(table)
		fmt.Printf("kernel schedules from %s: %s\n", *tuneTable, table.Coverage(tensor.MaxWorkers()))
	}

	var tracer *obs.Tracer
	if *tracePath != "" || *metricsPath != "" {
		var err error
		tracer, err = obs.OpenTracer(*tracePath, *traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
	} else if *listen != "" {
		// Live export needs a tracer even without a trace file.
		tracer = obs.New(nil)
	}
	if tracer != nil {
		experiments.SetObs(tracer)
		defer func() {
			if *metricsPath != "" {
				if err := obs.WriteMetricsFile(*metricsPath, tracer); err != nil {
					fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
				}
			}
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			}
		}()
	}
	if *listen != "" {
		exporter, err := obs.StartExporter(tracer, obs.ExporterConfig{Listen: *listen})
		if err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("live telemetry on http://%s (/metrics /conformance /spans /debug/pprof/)\n", exporter.Addr())
		defer func() {
			if err := exporter.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			}
		}()
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}
	// Metrics the gated experiments contribute toward -baseline /
	// -write-baseline.
	var gated []experiments.BaselineMetric

	run := func(name string, fn func() error) {
		if !selected["all"] && !selected[name] {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("table3", func() error {
		rows, err := experiments.Table3()
		if err != nil {
			return err
		}
		return experiments.PrintTable3(os.Stdout, rows)
	})
	run("fig6a", func() error {
		rows, err := experiments.Fig6A()
		if err != nil {
			return err
		}
		return experiments.PrintFig6A(os.Stdout, rows)
	})
	run("fig6b", func() error {
		r, err := experiments.Fig6B()
		if err != nil {
			return err
		}
		return experiments.PrintFig6B(os.Stdout, r)
	})
	run("fig6c", func() error {
		rows, err := experiments.Fig6C()
		if err != nil {
			return err
		}
		return experiments.PrintFig6C(os.Stdout, rows)
	})
	run("fig7", func() error {
		cfg := experiments.DefaultFig7Config()
		cfg.LRs = *fig7LRs
		cfg.Cycles = *fig7Cycles
		r, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		return experiments.PrintFig7(os.Stdout, r, "(A)")
	})
	run("fig7b", func() error {
		cfg := experiments.DefaultFig7Config()
		cfg.LRs = *fig7LRs
		cfg.Cycles = *fig7Cycles
		cfg.SecPerLabel = 0.2 // mini-scale analogue of 4 s/label
		r, err := experiments.Fig7(cfg)
		if err != nil {
			return err
		}
		return experiments.PrintFig7(os.Stdout, r, "(B)")
	})
	run("fig8", func() error {
		rows, err := experiments.Fig8()
		if err != nil {
			return err
		}
		return experiments.PrintFig8(os.Stdout, rows)
	})
	run("fig9", func() error {
		rows, err := experiments.Fig9()
		if err != nil {
			return err
		}
		return experiments.PrintFig9(os.Stdout, rows)
	})
	run("fig10a", func() error {
		rows, err := experiments.Fig10A()
		if err != nil {
			return err
		}
		return experiments.PrintFig10A(os.Stdout, rows)
	})
	run("fig10b", func() error {
		rows, err := experiments.Fig10B()
		if err != nil {
			return err
		}
		return experiments.PrintFig10B(os.Stdout, rows)
	})
	run("fig11", func() error {
		r, err := experiments.Fig11()
		if err != nil {
			return err
		}
		return experiments.PrintFig11(os.Stdout, r)
	})
	run("hwsweep", func() error {
		rows, err := experiments.HardwareSweep()
		if err != nil {
			return err
		}
		return experiments.PrintHardwareSweep(os.Stdout, rows)
	})
	run("solver", func() error {
		st, err := experiments.CompareSolvers(workloads.FTR3())
		if err != nil {
			return err
		}
		return experiments.PrintSolverStats(os.Stdout, st)
	})
	run("obs", func() error {
		r, err := experiments.ObsOverhead(*obsRuns)
		if err != nil {
			return err
		}
		gated = append(gated, experiments.ObsBaselineMetrics(r)...)
		if err := experiments.PrintObsOverhead(os.Stdout, r); err != nil {
			return err
		}
		if *obsJSON != "" {
			if err := experiments.WriteObsOverheadJSON(*obsJSON, r); err != nil {
				return err
			}
			fmt.Printf("overhead JSON written to %s\n", *obsJSON)
		}
		return nil
	})
	run("replan", func() error {
		r, err := experiments.Replan()
		if err != nil {
			return err
		}
		gated = append(gated, experiments.ReplanBaselineMetrics(r)...)
		if err := experiments.PrintReplan(os.Stdout, r); err != nil {
			return err
		}
		if *replanJSON != "" {
			if err := experiments.WriteReplanJSON(*replanJSON, r); err != nil {
				return err
			}
			fmt.Printf("replan JSON written to %s\n", *replanJSON)
		}
		return nil
	})
	run("tune", func() error {
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
	})
	run("kernels", func() error {
		r, err := experiments.Kernels(*kernelsRuns)
		if err != nil {
			return err
		}
		gated = append(gated, experiments.KernelsBaselineMetrics(r)...)
		if err := experiments.PrintKernels(os.Stdout, r); err != nil {
			return err
		}
		if *kernelsJSON != "" {
			if err := experiments.WriteKernelsJSON(*kernelsJSON, r); err != nil {
				return err
			}
			fmt.Printf("kernels JSON written to %s\n", *kernelsJSON)
		}
		return nil
	})
	run("lint", func() error {
		r, err := experiments.LintBench()
		if err != nil {
			return err
		}
		gated = append(gated, experiments.LintBaselineMetrics(r)...)
		if err := experiments.PrintLintBench(os.Stdout, r); err != nil {
			return err
		}
		if *lintJSON != "" {
			if err := experiments.WriteLintBenchJSON(*lintJSON, r); err != nil {
				return err
			}
			fmt.Printf("lint JSON written to %s\n", *lintJSON)
		}
		return nil
	})
	run("calib", func() error {
		r, err := experiments.Calib()
		if err != nil {
			return err
		}
		gated = append(gated, experiments.CalibBaselineMetrics(r)...)
		if err := experiments.PrintCalib(os.Stdout, r); err != nil {
			return err
		}
		if *calibJSON != "" {
			if err := experiments.WriteCalibJSON(*calibJSON, r); err != nil {
				return err
			}
			fmt.Printf("calibration JSON written to %s\n", *calibJSON)
		}
		return nil
	})

	run("fusion", func() error {
		r, err := experiments.Fusion()
		if err != nil {
			return err
		}
		gated = append(gated, experiments.FusionBaselineMetrics(r)...)
		if err := experiments.PrintFusion(os.Stdout, r); err != nil {
			return err
		}
		if *fusionJSON != "" {
			if err := experiments.WriteFusionJSON(*fusionJSON, r); err != nil {
				return err
			}
			fmt.Printf("fusion JSON written to %s\n", *fusionJSON)
		}
		return nil
	})

	if *writeBaseline != "" {
		if err := experiments.WriteBaseline(*writeBaseline, gated); err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("baseline written to %s (%d metrics)\n", *writeBaseline, len(gated))
	}
	if *baselinePath != "" {
		base, err := experiments.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
		comparisons, regressions := experiments.CompareBaseline(base, gated)
		if err := experiments.PrintBaselineComparison(os.Stdout, comparisons, regressions); err != nil {
			fmt.Fprintln(os.Stderr, "nautilus-bench:", err)
			os.Exit(1)
		}
		if regressions > 0 {
			// Exits without running the trace/exporter defers: a failing gate
			// is a CI stop, not a clean report.
			os.Exit(1)
		}
	}
}
