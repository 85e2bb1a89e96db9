package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric of the benchmark contract. BENCHMARK.json
// repeats these tables; bench_test.go fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression
	// (0 for per-layer metrics, which carry no bound).
	Bound float64
}

// endToEnd lists what a user of the system sees. Every workload emits every
// one of them, so each is defined for all six workloads (README.md says
// what a "cycle" and a "work item" are on each).
//
// The bounds are what this box can hold, not what one would like: the same
// binary's medians moved by a factor of 1.5 between quiet and busy periods
// of the shared host, and within a quiet period ten runs spread by 2-12 %
// of their median (README.md, "How steady they are"). A tighter claim needs
// paired runs, not a tighter bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"session_s", "s", "lower", 0.25},
	{"first_cycle_s", "s", "lower", 0.25},
	{"last_cycle_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, named
// <module>.<metric> after the module under internal/ they measure. A metric
// that does not apply to a workload (exec.* on plan_zoo, say) reads 0 there:
// the layer did no work.
var perLayer = []metricDef{
	// Construction, inside setup_s.
	{"workloads.build_s", "s", "lower", 0},
	{"profile.profile_s", "s", "lower", 0},
	{"mmg.build_s", "s", "lower", 0},
	{"data.pool_s", "s", "lower", 0},
	{"core.new_s", "s", "lower", 0},
	{"data.next_cycle_s", "s", "lower", 0},
	// Planning.
	{"core.replan_s", "s", "lower", 0},
	{"core.replans", "count", "lower", 0},
	{"core.replan_p50_ms", "ms", "lower", 0},
	{"core.replan_p80_ms", "ms", "lower", 0},
	{"core.evolve_s", "s", "lower", 0},
	{"core.groups", "count", "lower", 0},
	{"core.materialized_sigs", "count", "higher", 0},
	{"core.groups_checked", "count", "lower", 0},
	{"core.reset_params_s", "s", "lower", 0},
	{"core.speedup_vs_cp", "x", "higher", 0},
	{"opt.mat_solve_s", "s", "lower", 0},
	{"opt.mat_nodes", "count", "lower", 0},
	{"opt.fuse_s", "s", "lower", 0},
	{"opt.fuse_states", "count", "lower", 0},
	{"opt.plan_cost", "flop/record", "lower", 0},
	{"verify.groups_s", "s", "lower", 0},
	// Execution.
	{"exec.reconcile_s", "s", "lower", 0},
	{"exec.materialize_s", "s", "lower", 0},
	{"exec.materialize_rows", "count", "lower", 0},
	{"exec.train_group_s", "s", "lower", 0},
	{"exec.train_steps", "count", "lower", 0},
	{"exec.train_records", "count", "higher", 0},
	{"exec.compute_flops", "flop", "lower", 0},
	{"exec.load_bytes", "B", "lower", 0},
	{"exec.effective_gflops", "gflop/s", "higher", 0},
	{"exec.checkpoint_s", "s", "lower", 0},
	// Storage.
	{"storage.checkpoint_bytes", "B", "lower", 0},
	{"storage.bytes_read", "B", "lower", 0},
	{"storage.bytes_written", "B", "lower", 0},
	{"storage.reads", "count", "lower", 0},
	{"storage.writes", "count", "lower", 0},
	{"storage.cache_hit_ratio", "ratio", "higher", 0},
	{"storage.footprint_mb", "MB", "lower", 0},
	{"storage.append_s", "s", "lower", 0},
	{"storage.read_rows_s", "s", "lower", 0},
	{"storage.gc_reopen_s", "s", "lower", 0},
	{"storage.read_rows_us_per_row", "us", "lower", 0},
	{"storage.append_mb_per_s", "MB/s", "higher", 0},
	// One training step of the first group's plan model, split by layer.
	{"train.gather_s", "s", "lower", 0},
	{"graph.forward_s", "s", "lower", 0},
	{"train.loss_s", "s", "lower", 0},
	{"graph.backward_s", "s", "lower", 0},
	{"train.optimizer_step_s", "s", "lower", 0},
	{"tensor.allocs_per_step", "count", "lower", 0},
	{"tensor.alloc_bytes_per_step", "B", "lower", 0},
	{"tensor.arena_hit_ratio", "ratio", "higher", 0},
	// Kernels at the mini models' shapes.
	{"tensor.matmul_gflops", "gflop/s", "higher", 0},
	{"tensor.matmul_bt_gflops", "gflop/s", "higher", 0},
	{"tensor.im2col_s", "s", "lower", 0},
	{"tensor.softmax_rows_s", "s", "lower", 0},
	{"tensor.maxpool_s", "s", "lower", 0},
	// The benchmark's own account.
	{"bench.warmup_s", "s", "lower", 0},
	{"bench.traced_session_s", "s", "lower", 0},
	{"bench.unattributed_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},
}

// now is the benchmark's only wall-clock read.
func now() time.Time {
	//lint:ignore determinism the benchmark measures real elapsed time; every timing goes through this helper
	return time.Now()
}

// since returns the seconds elapsed since t0.
func since(t0 time.Time) float64 { return now().Sub(t0).Seconds() }

// timed runs fn and returns its wall time in seconds.
func timed(fn func() error) (float64, error) {
	t0 := now()
	err := fn()
	return since(t0), err
}

// quantile returns the q-quantile (0..1) of vals by nearest rank on a
// sorted copy; 0 for an empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}
