// Optimizer benchmarks with no other home: solve time at the largest
// workload, the B&B+min-cut solver against the joint MILP, the storage
// response to the backoff estimate r, and one Figure 5 peak-memory
// estimate — all at paper scale over the real optimizer. The paper's
// tables and figures themselves are printed by `nautilus-bench -exp <name>`
// and their shapes asserted in internal/experiments/experiments_test.go.
package nautilus_test

import (
	"strconv"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/opt"
	"nautilus/internal/workloads"
)

func BenchmarkOptimizer_SolveTime(b *testing.B) {
	// §5.3: optimizer solve time at practical workload sizes. The B&B
	// solver is benchmarked on the largest workload; the MILP on FTR-3.
	inst, err := experiments.PaperInstance(workloads.FTR1())
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.PaperConfig(core.Nautilus)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := opt.OptimizeMaterialization(inst.MM, inst.Items, opt.MatConfig{
			DiskBudgetBytes: cfg.DiskBudgetBytes, MaxRecords: cfg.MaxRecords,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.NodesExplored), "bnb_nodes")
		}
	}
}

func BenchmarkAblation_MincutVsMILP(b *testing.B) {
	// The scalable B&B+min-cut solver against the faithful joint MILP on
	// the same instance: identical optima, different solve times.
	inst, err := experiments.PaperInstance(workloads.FTR3())
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.PaperConfig(core.Nautilus)
	for _, solver := range []string{"bnb", "milp"} {
		solver := solver
		b.Run(solver, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := opt.OptimizeMaterialization(inst.MM, inst.Items, opt.MatConfig{
					DiskBudgetBytes: cfg.DiskBudgetBytes, MaxRecords: cfg.MaxRecords, Solver: solver,
				})
				if err != nil {
					b.Fatal(err)
				}
				cost = res.TotalCostFLOPs
			}
			b.ReportMetric(float64(cost)/1e12, "plan_TFLOPs")
		})
	}
}

func BenchmarkAblation_BackoffFactor(b *testing.B) {
	// Section 4.2.3's exponential backoff of the max-records estimate r:
	// how plan cost and storage respond as r doubles.
	inst, err := experiments.PaperInstance(workloads.FTR2())
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.PaperConfig(core.Nautilus)
	for i := 0; i < b.N; i++ {
		for _, r := range []int{1000, 2000, 4000, 8000} {
			res, err := opt.OptimizeMaterialization(inst.MM, inst.Items, opt.MatConfig{
				DiskBudgetBytes: cfg.DiskBudgetBytes, MaxRecords: r,
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.StorageBytes)/float64(1<<30), "storageGB_r"+strconv.Itoa(r))
			}
		}
	}
}

func BenchmarkAblation_MemoryEstimator(b *testing.B) {
	// Estimator cost: one fused-pair peak-memory analysis at paper scale.
	inst, err := experiments.PaperInstance(workloads.FTR2())
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.PaperConfig(core.Nautilus)
	wp, err := core.PlanWorkload(inst.Items, inst.MM, cfg, cfg.MaxRecords)
	if err != nil {
		b.Fatal(err)
	}
	g := wp.Groups[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := opt.EstimatePeakMemory(g.Plan, g.BatchSize(), 2)
		if i == 0 {
			b.ReportMetric(float64(est.Total())/float64(1<<30), "peakGB")
		}
	}
}
