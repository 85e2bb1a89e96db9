package opt_test

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

// Figure 10's budget sweeps, as fractions of its largest point. The GB
// values themselves never bind a mini-scale workload, so each row applies
// the fractions to its own range: B_disk from nothing to the footprint MAT
// OPT picks unconstrained, B_mem from the largest singleton peak (nothing
// fuses) to the largest group peak FUSE OPT reaches unconstrained.
var (
	fig10DiskFractions = []float64{0, 1 / 25., 2.5 / 25, 5 / 25., 7.5 / 25, 10 / 25., 15 / 25., 1}
	fig10MemFractions  = []float64{2 / 12., 4 / 12., 6 / 12., 8 / 12., 10 / 12., 1}
)

// The generic simplex MILP needs minutes per binding budget point from 12
// models up (80 s for one point of FTR-3) and the partition search spends
// ~3.5 s per call on a 24-model workload at its default state budget, so by
// default the Table 3 rows compare the solvers at the two ends of the B_disk
// sweep, skip the MILP on FTR-1 and FTR-2, and enumerate with an eighth of
// the state budget. -full lifts the last two; EXPERIMENTS.md records it.
var fullDifferential = flag.Bool("full", false, "TestSolversAndFusersAgree: default enum state budget, MILP on FTR-1 and FTR-2 too (minutes)")

// TestSolversAndFusersAgree checks the planner's one MAT OPT and one FUSE
// OPT against their exact oracles: on every Table 3 workload at mini scale
// and a seeded random corpus, across Figure 10's budget points, B&B over
// min-cut reaches the cost of the paper's joint MILP (SolveMILP) with both
// results verifying, and Algorithm 1 never costs less than the partition
// search (FuseEnum) with both partitions verifying. It logs on how many
// rows enumeration is strictly cheaper (EXPERIMENTS.md records the count).
// Under the race detector it runs the random corpus alone at the ends of
// each sweep; `make check` also runs it untrimmed in a plain leg.
func TestSolversAndFusersAgree(t *testing.T) {
	type row struct {
		name  string
		items []opt.WorkItem
		// diskFractions are the B_disk points the MILP is run at.
		diskFractions []float64
	}
	var rows []row
	stateBudget := opt.EnumStateBudget / 8
	if *fullDifferential {
		stateBudget = opt.EnumStateBudget
	}
	specs := workloads.All()
	diskFractions, memFractions := fig10DiskFractions, fig10MemFractions
	if raceBuild {
		specs, diskFractions, memFractions = nil, []float64{0, 1}, []float64{0, 1}
	}
	for _, spec := range specs {
		inst, err := spec.Build(workloads.Mini, experiments.MiniHardware())
		if err != nil {
			t.Fatal(err)
		}
		ends := []float64{0, 1}
		if (spec.Name == "FTR-1" || spec.Name == "FTR-2") && !*fullDifferential {
			ends = nil
		}
		rows = append(rows, row{spec.Name, inst.Items, ends})
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 12; i++ {
		rows = append(rows, row{fmt.Sprintf("random-%02d", i), randomWorkload(t, rng, 2+rng.Intn(5)), diskFractions})
	}

	const r = 600
	matRows, matAgree, fuseRows, enumCheaper := 0, 0, 0, 0
	for _, row := range rows {
		models := make([]*graph.Model, len(row.items))
		for i, it := range row.items {
			models[i] = it.Model
		}
		mm, err := mmg.Build(models...)
		if err != nil {
			t.Fatal(err)
		}
		solve := func(solver string, disk int64) *opt.MatResult {
			cfg := opt.MatConfig{DiskBudgetBytes: disk, MaxRecords: r}
			optimize := opt.OptimizeMaterialization
			if solver == "milp" {
				optimize = opt.SolveMILP
			}
			res, err := optimize(mm, row.items, cfg)
			if err != nil {
				t.Fatalf("%s: %s at B_disk %d: %v", row.name, solver, disk, err)
			}
			if err := verify.MatResult(res, row.items, cfg); err != nil {
				t.Fatalf("%s: %s at B_disk %d: %v", row.name, solver, disk, err)
			}
			return res
		}
		fuse := func(fuser string, sigs map[graph.Signature]bool, mem int64) []*opt.FusedGroup {
			cfg := opt.FuseConfig{MemBudgetBytes: mem, OptimizerSlotBytes: opt.AdamSlotBytes}
			var groups []*opt.FusedGroup
			var err error
			if fuser == "enum" {
				groups, _, err = opt.FuseEnum(row.items, sigs, cfg, stateBudget)
			} else {
				groups, err = new(opt.Fuser).Fuse(row.items, sigs, cfg)
			}
			if err != nil {
				t.Fatalf("%s: %s at B_mem %d: %v", row.name, fuser, mem, err)
			}
			if err := verify.Groups(groups, row.items, mem, sigs); err != nil {
				t.Fatalf("%s: %s at B_mem %d: %v", row.name, fuser, mem, err)
			}
			return groups
		}

		free := solve("bnb", 1<<50)
		for _, frac := range row.diskFractions {
			disk := int64(frac * float64(free.StorageBytes))
			bnb, milp := solve("bnb", disk), solve("milp", disk)
			matRows++
			if bnb.TotalCostFLOPs == milp.TotalCostFLOPs {
				matAgree++
			} else {
				t.Errorf("%s at B_disk %d: bnb cost %d, milp cost %d", row.name, disk, bnb.TotalCostFLOPs, milp.TotalCostFLOPs)
			}
		}

		maxPeak := func(groups []*opt.FusedGroup, err error) int64 {
			if err != nil {
				t.Fatal(err)
			}
			var peak int64
			for _, g := range groups {
				if g.PeakMemBytes > peak {
					peak = g.PeakMemBytes
				}
			}
			return peak
		}
		single := maxPeak(opt.SingletonGroups(row.items, free.Sigs, opt.ReusePlan, opt.AdamSlotBytes))
		fused := maxPeak(fuse("greedy", free.Sigs, 1<<50), nil)
		for _, frac := range memFractions {
			mem := single + int64(frac*float64(fused-single))
			greedy, enum := opt.TotalPlanCost(fuse("greedy", free.Sigs, mem)), opt.TotalPlanCost(fuse("enum", free.Sigs, mem))
			fuseRows++
			switch {
			case enum > greedy:
				t.Errorf("%s at B_mem %d: enum cost %d above greedy %d", row.name, mem, enum, greedy)
			case enum < greedy:
				enumCheaper++
				t.Logf("%s at B_mem %d (%.0f%% of the way to the unconstrained peak): enum %d < greedy %d", row.name, mem, 100*frac, enum, greedy)
			}
		}
	}
	t.Logf("B&B cost equals the MILP's on %d of %d (workload, B_disk) rows", matAgree, matRows)
	t.Logf("enum strictly cheaper than greedy on %d of %d (workload, B_mem) rows", enumCheaper, fuseRows)
}

// BenchmarkAblation_MincutVsMILP times MAT OPT, B&B over min-cut, against
// its oracle, the paper's joint MILP, on paper-scale FTR-3 under the paper's
// budgets: identical optima, different solve times (EXPERIMENTS.md
// "Optimizer solve time").
func BenchmarkAblation_MincutVsMILP(b *testing.B) {
	inst, err := experiments.PaperInstance(workloads.FTR3())
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.PaperConfig(core.Nautilus)
	matCfg := opt.MatConfig{DiskBudgetBytes: cfg.DiskBudgetBytes, MaxRecords: cfg.MaxRecords}
	for _, s := range []struct {
		name  string
		solve func(*mmg.MultiModel, []opt.WorkItem, opt.MatConfig) (*opt.MatResult, error)
	}{{"bnb", opt.OptimizeMaterialization}, {"milp", opt.SolveMILP}} {
		b.Run(s.name, func(b *testing.B) {
			var cost int64
			for i := 0; i < b.N; i++ {
				res, err := s.solve(inst.MM, inst.Items, matCfg)
				if err != nil {
					b.Fatal(err)
				}
				cost = res.TotalCostFLOPs
			}
			b.ReportMetric(float64(cost)/1e12, "plan_TFLOPs")
		})
	}
}
