package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// BaselineVersion is the on-disk schema version of baseline files.
const BaselineVersion = 1

// BaselineMetric is one gated benchmark metric: its value, which direction
// is better, and the relative tolerance (percent) inside which a change is
// noise rather than a regression.
type BaselineMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	// Higher reports whether larger values are better (throughput-like);
	// false means smaller is better (latency-, error-, and count-like).
	Higher bool `json:"higher_is_better"`
	// TolPct is the allowed relative worsening in percent before the
	// comparison counts as a regression.
	TolPct float64 `json:"tol_pct"`
}

// BaselineFile is the committed perf-regression baseline.
type BaselineFile struct {
	Version int              `json:"version"`
	Metrics []BaselineMetric `json:"metrics"`
}

// WriteBaseline persists the metrics as an indented baseline file.
func WriteBaseline(path string, metrics []BaselineMetric) error {
	data, err := json.MarshalIndent(BaselineFile{Version: BaselineVersion, Metrics: metrics}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBaseline reads and validates a baseline file.
func LoadBaseline(path string) ([]BaselineMetric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: read baseline: %w", err)
	}
	var f BaselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("experiments: parse baseline %s: %w", path, err)
	}
	if f.Version != BaselineVersion {
		return nil, fmt.Errorf("experiments: baseline %s has version %d, this build reads version %d — rewrite it (nautilus-bench -write-baseline)",
			path, f.Version, BaselineVersion)
	}
	return f.Metrics, nil
}

// BaselineComparison is one metric's verdict.
type BaselineComparison struct {
	Name        string
	Base        float64
	Current     float64
	ChangePct   float64
	TolPct      float64
	Regressed   bool
	Missing     bool // metric in the baseline but absent from this run
	Unbaselined bool // metric in this run but absent from the baseline
}

// CompareBaseline scores current metrics against a baseline. Each baseline
// metric must have a current counterpart (missing ones count as
// regressions — a silently dropped gate is worse than a failing one);
// current metrics with no baseline entry are reported informationally.
// The comparison is noise-aware: a worsening within the metric's TolPct is
// accepted.
func CompareBaseline(base, current []BaselineMetric) (comparisons []BaselineComparison, regressions int) {
	cur := map[string]BaselineMetric{}
	for _, m := range current {
		cur[m.Name] = m
	}
	seen := map[string]bool{}
	for _, b := range base {
		seen[b.Name] = true
		c, ok := cur[b.Name]
		if !ok {
			comparisons = append(comparisons, BaselineComparison{Name: b.Name, Base: b.Value, Missing: true, Regressed: true})
			regressions++
			continue
		}
		cmp := BaselineComparison{Name: b.Name, Base: b.Value, Current: c.Value, TolPct: b.TolPct}
		//lint:ignore floateq exact-zero base: relative change is undefined, not a tolerance check
		if b.Value != 0 {
			cmp.ChangePct = 100 * (c.Value - b.Value) / b.Value
		}
		worsePct := cmp.ChangePct
		if b.Higher {
			worsePct = -worsePct
		}
		if worsePct > b.TolPct {
			cmp.Regressed = true
			regressions++
		}
		comparisons = append(comparisons, cmp)
	}
	for _, c := range current {
		if !seen[c.Name] {
			comparisons = append(comparisons, BaselineComparison{Name: c.Name, Current: c.Value, Unbaselined: true})
		}
	}
	return comparisons, regressions
}

// PrintBaselineComparison renders the gate verdict table.
func PrintBaselineComparison(w io.Writer, comparisons []BaselineComparison, regressions int) error {
	p := &printer{w: w}
	p.printf("Perf-regression gate (%d metrics)\n", len(comparisons))
	p.printf("%-28s %14s %14s %9s %7s  %s\n", "metric", "baseline", "current", "change", "tol", "verdict")
	for _, c := range comparisons {
		switch {
		case c.Missing:
			p.printf("%-28s %14.4g %14s %9s %7s  REGRESSED (metric missing from this run)\n", c.Name, c.Base, "-", "-", "-")
		case c.Unbaselined:
			p.printf("%-28s %14s %14.4g %9s %7s  new (not in baseline)\n", c.Name, "-", c.Current, "-", "-")
		default:
			verdict := "ok"
			if c.Regressed {
				verdict = "REGRESSED"
			}
			p.printf("%-28s %14.4g %14.4g %8.2f%% %6.1f%%  %s\n", c.Name, c.Base, c.Current, c.ChangePct, c.TolPct, verdict)
		}
	}
	if regressions > 0 {
		p.printf("%d regression(s) beyond tolerance\n", regressions)
	} else {
		p.printf("no regressions\n")
	}
	return p.err
}

// Baseline collectors: experiments contribute ratio- and count-valued
// metrics (deterministic or noise-normalized), not raw wall times — a
// loaded CI machine shifts every absolute time together, but ratios
// against an in-run control leg stay comparable. Zero-valued metrics are
// skipped: a zero base makes relative tolerance meaningless.

// appendMetric adds a metric unless its value is zero.
func appendMetric(ms []BaselineMetric, name string, value float64, higher bool, tolPct float64) []BaselineMetric {
	//lint:ignore floateq exact-zero sentinel for "metric not collected this run"
	if value == 0 {
		return ms
	}
	return append(ms, BaselineMetric{Name: name, Value: value, Higher: higher, TolPct: tolPct})
}

// ObsBaselineMetrics gates the observability overhead: the nil-sink and
// active-sink wall-time ratios against the uninstrumented control leg
// (≈1.0, lower is better) and the span volume per run (deterministic).
func ObsBaselineMetrics(r *ObsOverheadResult) []BaselineMetric {
	var ms []BaselineMetric
	if r.NoObsSec > 0 {
		ms = appendMetric(ms, "obs.nil_sink_ratio", r.NilSinkSec/r.NoObsSec, false, 15)
		ms = appendMetric(ms, "obs.active_sink_ratio", r.ActiveSinkSec/r.NoObsSec, false, 15)
	}
	ms = appendMetric(ms, "obs.spans_per_run", float64(r.SpansPerRun), false, 10)
	return ms
}

// ReplanBaselineMetrics gates the incremental-replan shape: all counts and
// byte totals are deterministic, so tolerances are tight.
func ReplanBaselineMetrics(r *ReplanResult) []BaselineMetric {
	var ms []BaselineMetric
	ms = appendMetric(ms, "replan.incremental_bytes", float64(r.IncrementalBytes), false, 2)
	ms = appendMetric(ms, "replan.savings_pct", r.SavingsPct, true, 2)
	ms = appendMetric(ms, "replan.new_sigs", float64(r.NewSigs), false, 0)
	return ms
}

// FusionBaselineMetrics gates fusion plan quality: the enum/greedy cost
// ratio and the fixture improvement are deterministic plan-cost ratios
// (tight tolerance); the search counters guard against the DP silently
// exploding or collapsing (loose tolerance — pruning order may shift).
func FusionBaselineMetrics(r *FusionResult) []BaselineMetric {
	var ms []BaselineMetric
	ms = appendMetric(ms, "fusion.cost_ratio", r.CostRatio, false, 1)
	ms = appendMetric(ms, "fusion.fixture_improvement_pct", r.FixtureImprovementPct, true, 5)
	ms = appendMetric(ms, "fusion.enum_states", float64(r.EnumStats.StatesExplored), false, 25)
	ms = appendMetric(ms, "fusion.enum_groups_built", float64(r.EnumStats.PairsEvaluated), false, 25)
	return ms
}

// KernelsBaselineMetrics gates the autotuned kernels: the headline matmul
// speedups over the seed reference (in-run ratios, so wall-clock load
// shifts both legs together), the worst parallel speedup across kernels
// (must stay >= 1.0 — the tuned cutoffs' whole job), and the end-to-end
// training epoch speedup.
func KernelsBaselineMetrics(r *KernelsResult) []BaselineMetric {
	var ms []BaselineMetric
	minPar, haveMin := 0.0, false
	for _, k := range r.Kernels {
		switch k.Name {
		case "matmul_1024":
			ms = appendMetric(ms, "kernels.matmul_1024_speedup", k.SpeedupVsSeed, true, 25)
		case "matmul_256":
			ms = appendMetric(ms, "kernels.matmul_256_speedup", k.SpeedupVsSeed, true, 25)
		}
		if !haveMin || k.ParallelSpeedup < minPar {
			minPar, haveMin = k.ParallelSpeedup, true
		}
	}
	ms = appendMetric(ms, "kernels.min_parallel_speedup", minPar, true, 5)
	if r.Train != nil {
		ms = appendMetric(ms, "kernels.train_epoch_speedup", r.Train.EpochSpeedup, true, 30)
	}
	return ms
}

// CalibBaselineMetrics gates calibration quality: the fitted constants'
// conformance error (dimensionless, machine-local) must stay tight, and
// the sample volume must not silently collapse. The compute-error
// tolerance is wide because autotuned kernels make per-shape throughput
// heterogeneous — the single-constant fit's residual swings ~3x run to
// run — while the failure mode being gated (calibration not tightening
// at all) sits near 1.0, ~25x the baseline.
func CalibBaselineMetrics(r *CalibResult) []BaselineMetric {
	var ms []BaselineMetric
	ms = appendMetric(ms, "calib.err_compute_after", r.ErrComputeAfter, false, 400)
	ms = appendMetric(ms, "calib.compute_samples", float64(r.ComputeSamples), true, 20)
	return ms
}

// LintBaselineMetrics gates the incremental lint cache: a warm sweep must
// replay the cold sweep's findings identically and markedly faster. The
// speedup is capped at 10 before gating so the committed baseline encodes
// the contract "warm is at least ~3x faster than cold" (cap 10, 70%
// tolerance → floor 3x) instead of whatever a fast machine happened to
// measure; warm_identical is emitted only when the replayed findings
// matched, so a divergence trips the missing-metric regression.
func LintBaselineMetrics(r *LintBenchResult) []BaselineMetric {
	var ms []BaselineMetric
	speedup := r.WarmSpeedup
	if speedup > 10 {
		speedup = 10
	}
	ms = appendMetric(ms, "lint.warm_speedup", speedup, true, 70)
	if r.WarmIdentical {
		ms = appendMetric(ms, "lint.warm_identical", 1, true, 0)
	}
	return ms
}
