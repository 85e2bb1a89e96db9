package experiments

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/workloads"
)

func TestFig6AShapeHolds(t *testing.T) {
	rows, err := Fig6A()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	best := ""
	bestSpeedup := 0.0
	for _, r := range rows {
		// Ordering the paper reports: Nautilus beats MAT-ALL beats (or
		// ties) Current Practice on every workload.
		if r.Nautilus >= r.MatAll {
			t.Errorf("%s: nautilus (%.1f min) not faster than MAT-ALL (%.1f)", r.Workload, r.Nautilus, r.MatAll)
		}
		if r.Nautilus >= r.CurrentPractice {
			t.Errorf("%s: nautilus not faster than current practice", r.Workload)
		}
		if r.NautilusSpeedup > bestSpeedup {
			bestSpeedup = r.NautilusSpeedup
			best = r.Workload
		}
	}
	// The paper's headline: highest speedup on FTR-2, several-fold.
	if best != "FTR-2" {
		t.Errorf("highest speedup on %s, want FTR-2", best)
	}
	if bestSpeedup < 3 {
		t.Errorf("best speedup %.1fX, want >= 3X", bestSpeedup)
	}
	PrintFig6A(io.Discard, rows)
}

func TestFig6BSpeedupsPerCycle(t *testing.T) {
	r, err := Fig6B()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CycleSpeedups) != 10 {
		t.Fatalf("cycles = %d", len(r.CycleSpeedups))
	}
	for i, s := range r.CycleSpeedups {
		if s < 2 {
			t.Errorf("cycle %d speedup %.1fX, want >= 2X", i+1, s)
		}
	}
	// Nautilus init costs more than Current Practice init (profiling +
	// optimization + plan checkpoints), as in §5.1.
	if r.InitNautilusMin <= r.InitCurrentPracticeMin {
		t.Error("nautilus init should exceed current practice init")
	}
	// Original-checkpoint creation dominates the init breakdown.
	if r.InitShares.OriginalCheckpoints < 0.5 {
		t.Errorf("checkpoint share %.2f, want dominant", r.InitShares.OriginalCheckpoints)
	}
	PrintFig6B(io.Discard, r)
}

func TestFig6CSpeedupDecaysWithLabelingCost(t *testing.T) {
	rows, err := Fig6C()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup >= rows[i-1].Speedup {
			t.Errorf("speedup must decay as labeling dominates: %v", rows)
		}
	}
	if rows[0].Speedup < 2 {
		t.Errorf("multi-labeler speedup %.1fX, want >= 2X", rows[0].Speedup)
	}
	last := rows[len(rows)-1]
	if last.Speedup > 2 {
		t.Errorf("single-labeler speedup %.1fX should be modest", last.Speedup)
	}
	PrintFig6C(io.Discard, rows)
}

func TestFig8AblationShape(t *testing.T) {
	rows, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig8Row{}
	for _, r := range rows {
		byName[r.Workload] = r
		// Disabling an optimization never speeds things up.
		if r.NoMatSlowdownPct < -1 || r.NoFuseSlowdownPct < -1 {
			t.Errorf("%s: negative slowdown %+v", r.Workload, r)
		}
	}
	// §5.3: FTU's runtime does not change without MAT OPT (it computes
	// all materializable layers anyway).
	if ftu := byName["FTU"]; ftu.NoMatSlowdownPct > 3 {
		t.Errorf("FTU w/o MAT slowdown %.0f%%, paper reports none", ftu.NoMatSlowdownPct)
	}
	// FTR-3 is where missing MAT OPT hurts most (two epoch settings
	// amplify recomputation).
	worstNoMat := ""
	worst := 0.0
	for _, r := range rows {
		if r.NoMatSlowdownPct > worst {
			worst = r.NoMatSlowdownPct
			worstNoMat = r.Workload
		}
	}
	if worstNoMat != "FTR-3" {
		t.Errorf("worst w/o MAT on %s, paper reports FTR-3", worstNoMat)
	}
	PrintFig8(io.Discard, rows)
}

func TestFig9FusionCrossover(t *testing.T) {
	rows, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	// At 1 model, fusion gives no benefit: Nautilus == w/o FUSE.
	if d := rows[0].Nautilus - rows[0].NoFuse; d > 0.2 || d < -0.2 {
		t.Errorf("single model: nautilus %.1f vs w/o FUSE %.1f should match", rows[0].Nautilus, rows[0].NoFuse)
	}
	// With few models, losing MAT hurts more than losing FUSE; with many
	// models the order flips (the paper's crossover).
	first, last := rows[0], rows[len(rows)-1]
	if first.NoMat <= first.NoFuse {
		t.Errorf("at %d models w/o MAT (%.1f) should exceed w/o FUSE (%.1f)", first.NumModels, first.NoMat, first.NoFuse)
	}
	if last.NoFuse <= last.NoMat {
		t.Errorf("at %d models w/o FUSE (%.1f) should exceed w/o MAT (%.1f)", last.NumModels, last.NoFuse, last.NoMat)
	}
	PrintFig9(io.Discard, rows)
}

func TestFig10BudgetSweeps(t *testing.T) {
	a, err := Fig10A()
	if err != nil {
		t.Fatal(err)
	}
	// Zero budget materializes nothing; runtime decreases monotonically
	// (within tolerance) and plateaus.
	if a[0].Materialized != 0 {
		t.Error("zero budget must materialize nothing")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Minutes > a[i-1].Minutes*1.01 {
			t.Errorf("10A not monotone: %v", a)
		}
		if float64(a[i].StorageGB) > a[i].BudgetGB {
			t.Errorf("10A budget violated at %v GB", a[i].BudgetGB)
		}
	}
	if last := a[len(a)-1]; last.Speedup < 2 {
		t.Errorf("10A plateau speedup %.1fX, want >= 2X", last.Speedup)
	}

	b, err := Fig10B()
	if err != nil {
		t.Fatal(err)
	}
	// 2 GB fits almost no pair (the analytical estimate is an upper
	// bound, so a few borderline pairs may still squeeze in).
	if b[0].Groups < 20 {
		t.Errorf("2GB budget should prevent nearly all fusion, got %d groups", b[0].Groups)
	}
	if last := b[len(b)-1]; last.Groups >= b[0].Groups {
		t.Error("generous memory budget should fuse far more")
	}
	for i := 1; i < len(b); i++ {
		if b[i].Minutes > b[i-1].Minutes*1.01 {
			t.Errorf("10B not monotone: %v", b)
		}
	}
	if last := b[len(b)-1]; last.Speedup < 2 {
		t.Errorf("10B plateau speedup %.1fX, want >= 2X", last.Speedup)
	}
	PrintFig10A(io.Discard, a)
	PrintFig10B(io.Discard, b)
}

func TestFig11ResourceShape(t *testing.T) {
	r, err := Fig11()
	if err != nil {
		t.Fatal(err)
	}
	if r.UtilizationNautilus <= r.UtilizationCP {
		t.Errorf("nautilus utilization %.2f should exceed current practice %.2f",
			r.UtilizationNautilus, r.UtilizationCP)
	}
	if r.WriteRatio < 2 {
		t.Errorf("write reduction %.1fX, want >= 2X (paper: 4.3X)", r.WriteRatio)
	}
	if r.ReadRatio < 5 {
		t.Errorf("read reduction %.1fX, want >= 5X (paper: 11.8X)", r.ReadRatio)
	}
	PrintFig11(io.Discard, r)
}

func TestTable3Catalog(t *testing.T) {
	rows, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"FTR-1": 36, "FTR-2": 24, "FTR-3": 12, "ATR": 24, "FTU": 24}
	for _, r := range rows {
		if r.NumModels != want[r.Workload] {
			t.Errorf("%s: %d models, want %d", r.Workload, r.NumModels, want[r.Workload])
		}
		if r.TheoreticalSpeedup < 1 {
			t.Errorf("%s: speedup %v < 1", r.Workload, r.TheoreticalSpeedup)
		}
	}
	PrintTable3(io.Discard, rows)
}

func TestCompareSolversAgree(t *testing.T) {
	st, err := CompareSolvers(workloads.FTR3())
	if err != nil {
		t.Fatal(err)
	}
	if !st.CostsAgree {
		t.Errorf("solvers disagree: bnb %d vs milp %d", st.BnBCost, st.MILPCost)
	}
	PrintSolverStats(io.Discard, st)
}

func TestHardwareSweepMonotoneLoads(t *testing.T) {
	rows, err := HardwareSweep()
	if err != nil {
		t.Fatal(err)
	}
	// Faster disks never cause fewer loads; plan cost never rises.
	for i := 1; i < len(rows); i++ {
		if rows[i].Loads < rows[i-1].Loads {
			t.Errorf("loads decreased with faster disk: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].PlanCostTFLOPs > rows[i-1].PlanCostTFLOPs*1.001 {
			t.Errorf("plan cost rose with faster disk: %+v -> %+v", rows[i-1], rows[i])
		}
	}
	// At the slow extreme the optimizer should load less than at the fast
	// extreme.
	if rows[0].Loads >= rows[len(rows)-1].Loads {
		t.Errorf("sweep shows no load sensitivity: %v", rows)
	}
	PrintHardwareSweep(io.Discard, rows)
}

// Figure 7's parity claim: Current Practice and Nautilus train logically
// equivalent SGD, so their best validation accuracies are bit-identical
// cycle by cycle.
func TestFig7ApproachesReachEqualAccuracy(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	r, err := Fig7(Fig7Config{LRs: 1, Cycles: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	requireEmptyDir(t, tmp)
	if len(r.CurrentPractice) != 1 || len(r.Nautilus) != 1 {
		t.Fatalf("cycles: current practice %d, nautilus %d; want 1 each", len(r.CurrentPractice), len(r.Nautilus))
	}
	for i, cp := range r.CurrentPractice {
		nt := r.Nautilus[i]
		if cp.Cycle != nt.Cycle || cp.BestAcc != nt.BestAcc {
			t.Errorf("cycle %d: current practice best acc %v, nautilus cycle %d best acc %v", cp.Cycle, cp.BestAcc, nt.Cycle, nt.BestAcc)
		}
	}
}

// RunMini returns one report per approach, in order, and removes every
// work directory it made; a work directory it cannot make is an error.
func TestRunMiniRemovesWorkDirs(t *testing.T) {
	spec := workloads.FTR3()
	spec.BatchSizes, spec.LRs, spec.Epochs = []int{8}, []float64{5e-5}, []int{1}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	approaches := []core.Approach{core.Nautilus, core.CurrentPractice}
	reports, err := RunMini(spec, approaches, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(approaches) {
		t.Fatalf("%d reports for %d approaches", len(reports), len(approaches))
	}
	for i, rep := range reports {
		if rep.Approach != approaches[i] || len(rep.Cycles) != 1 {
			t.Errorf("report %d: approach %s with %d cycles, want %s with 1", i, rep.Approach, len(rep.Cycles), approaches[i])
		}
	}
	requireEmptyDir(t, tmp)

	t.Setenv("TMPDIR", filepath.Join(tmp, "missing"))
	if _, err := RunMini(spec, approaches, 3, 1, nil); err == nil {
		t.Error("RunMini with no usable temp directory: want an error")
	}
}

func requireEmptyDir(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in the temp directory: %s", e.Name())
	}
}
