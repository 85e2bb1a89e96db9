package opt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/profile"
)

// miniHW is hardware proportioned for mini-scale models: ~100 FLOPs of
// compute per byte of disk bandwidth, so loading a tiny block's output can
// beat recomputing its (short) frozen chain — the same regime paper-scale
// models occupy at 12,000 FLOPs/byte. (With paper hardware and mini
// models, recomputing everything is genuinely optimal and MAT OPT would
// correctly choose to materialize nothing.)
var miniHW = profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e10, WorkspaceBytes: 1 << 28}

// miniWorkload builds a small feature-transfer model-selection workload
// over a shared mini BERT hub.
func miniWorkload(t *testing.T, n int) ([]WorkItem, *mmg.MultiModel) {
	t.Helper()
	hub := models.NewBERTHub(models.BERTMini())
	// Two strategies cycled: consecutive models pair up on a shared
	// feature, as the Table 3 grids do (several lr/batch configs per
	// strategy).
	strats := []models.FeatureStrategy{
		models.FeatLastHidden, models.FeatSecondLastHidden,
	}
	var items []WorkItem
	var ms []*graph.Model
	for i := 0; i < n; i++ {
		m, err := hub.FeatureTransferModel(fmt.Sprintf("m%d", i), strats[i%len(strats)], 9, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Profile(m, miniHW)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, WorkItem{Model: m, Prof: prof, Epochs: 5, BatchSize: 16})
		ms = append(ms, m)
	}
	mm, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return items, mm
}

func TestOptimizeMaterializationRespectsBudget(t *testing.T) {
	items, mm := miniWorkload(t, 3)
	for _, budget := range []int64{0, 10_000, 1 << 30} {
		res, err := OptimizeMaterialization(mm, items, MatConfig{
			DiskBudgetBytes: budget, MaxRecords: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.StorageBytes > budget {
			t.Errorf("budget %d: storage %d exceeds it", budget, res.StorageBytes)
		}
		if budget == 0 && len(res.Materialized) != 0 {
			t.Error("zero budget must materialize nothing")
		}
	}
}

func TestOptimizeMaterializationZeroBudgetEqualsCurrentPractice(t *testing.T) {
	items, mm := miniWorkload(t, 2)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 0, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, it := range items {
		want += CurrentPracticePlan(it.Prof).CostPerRecord * 100 * int64(it.Epochs)
	}
	if res.TotalCostFLOPs != want {
		t.Errorf("zero-budget cost %d, want current practice %d", res.TotalCostFLOPs, want)
	}
}

func TestOptimizeMaterializationMonotoneInBudget(t *testing.T) {
	// Property: a larger storage budget never yields a worse plan.
	items, mm := miniWorkload(t, 3)
	var prev int64 = 1 << 62
	for _, budget := range []int64{0, 1 << 16, 1 << 20, 1 << 24, 1 << 40} {
		res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: budget, MaxRecords: 100})
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalCostFLOPs > prev {
			t.Errorf("budget %d: cost %d worse than smaller budget's %d", budget, res.TotalCostFLOPs, prev)
		}
		prev = res.TotalCostFLOPs
	}
}

func TestOptimizeMaterializationBnBMatchesMILP(t *testing.T) {
	// The scalable solver and the faithful Equation 8–10 MILP must find
	// plans of equal cost.
	items, mm := miniWorkload(t, 2)
	for _, budget := range []int64{1 << 18, 1 << 22, 1 << 40} {
		bnb, err := OptimizeMaterialization(mm, items, MatConfig{
			DiskBudgetBytes: budget, MaxRecords: 50, Solver: "bnb",
		})
		if err != nil {
			t.Fatal(err)
		}
		ml, err := SolveMILP(mm, items, MatConfig{
			DiskBudgetBytes: budget, MaxRecords: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		if bnb.TotalCostFLOPs != ml.TotalCostFLOPs {
			t.Errorf("budget %d: bnb %d vs milp %d", budget, bnb.TotalCostFLOPs, ml.TotalCostFLOPs)
		}
	}
}

func TestOptimizeMaterializationRandomDAGsBnBMatchesMILP(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Two random models sharing a frozen prefix.
		shared := layers.NewDense(4, 6, layers.ActTanh, 42)
		var items []WorkItem
		var ms []*graph.Model
		for i := 0; i < 2; i++ {
			m := graph.NewModel(fmt.Sprintf("rm%d", i))
			in := m.AddInput("in", 4)
			s := m.AddNode("shared", shared, in)
			d := m.AddNode("d", layers.NewDense(6, 4+rng.Intn(4), layers.ActNone, rng.Int63()), s)
			d.Trainable = rng.Intn(2) == 0
			h := m.AddNode("h", layers.NewDense(d.Layer.(*layers.Dense).Out, 2, layers.ActNone, rng.Int63()), d)
			h.Trainable = true
			m.SetOutputs(h)
			prof, err := profile.Profile(m, profile.DefaultHardware())
			if err != nil {
				return false
			}
			items = append(items, WorkItem{Model: m, Prof: prof, Epochs: 1 + rng.Intn(5), BatchSize: 16})
			ms = append(ms, m)
		}
		mm, err := mmg.Build(ms...)
		if err != nil {
			return false
		}
		budget := int64(rng.Intn(100_000))
		a, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: budget, MaxRecords: 20, Solver: "bnb"})
		if err != nil {
			return false
		}
		b, err := SolveMILP(mm, items, MatConfig{DiskBudgetBytes: budget, MaxRecords: 20})
		if err != nil {
			return false
		}
		return a.TotalCostFLOPs == b.TotalCostFLOPs
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeMaterializationSharedLayersCountOnce(t *testing.T) {
	// Storage for an expression shared by all models is charged once.
	items, mm := miniWorkload(t, 4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	sigSeen := map[graph.Signature]int{}
	for _, c := range res.Materialized {
		sigSeen[c.Sig]++
	}
	for sig, cnt := range sigSeen {
		if cnt != 1 {
			t.Errorf("signature %v appears %d times in V", sig, cnt)
		}
	}
	// With unlimited budget the plans must beat current practice. The
	// margin at mini scale is modest (the trainable head dominates); the
	// paper-scale margin is exercised by the simulator benches.
	var cp int64
	for _, it := range items {
		cp += CurrentPracticePlan(it.Prof).CostPerRecord * 100 * int64(it.Epochs)
	}
	if float64(res.TotalCostFLOPs) > 0.95*float64(cp) {
		t.Errorf("materialization saved too little: %d vs current practice %d", res.TotalCostFLOPs, cp)
	}
}

func TestOptimizeMaterializationPrunesUnusedCandidates(t *testing.T) {
	items, mm := miniWorkload(t, 2)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Every materialized signature must be loaded by at least one plan.
	loaded := map[graph.Signature]bool{}
	for _, plan := range res.Plans {
		for _, n := range plan.LoadedNodes() {
			loaded[plan.Prof.Sig(n)] = true
		}
	}
	for _, c := range res.Materialized {
		if !loaded[c.Sig] {
			t.Errorf("materialized %v never loaded", c.Sig)
		}
	}
}

func TestOptimizeMaterializationInvalidConfig(t *testing.T) {
	items, mm := miniWorkload(t, 1)
	if _, err := OptimizeMaterialization(mm, items, MatConfig{MaxRecords: 0}); err == nil {
		t.Error("zero MaxRecords should error")
	}
	// Solver accepts only B&B's names: the MILP is SolveMILP, a test oracle.
	for _, solver := range []string{"nope", "milp"} {
		if _, err := OptimizeMaterialization(mm, items, MatConfig{MaxRecords: 10, Solver: solver}); err == nil {
			t.Errorf("solver %q should error", solver)
		}
	}
	for _, solver := range []string{"", "bnb"} {
		if _, err := OptimizeMaterialization(mm, items, MatConfig{MaxRecords: 10, Solver: solver}); err != nil {
			t.Errorf("solver %q: %v", solver, err)
		}
	}
}

func TestTheoreticalSpeedup(t *testing.T) {
	items, _ := miniWorkload(t, 4)
	s := TheoreticalSpeedup(items)
	if s <= 1 {
		t.Errorf("feature-transfer workload speedup = %v, want > 1", s)
	}
	// A workload with no frozen layers has speedup exactly 1.
	m := graph.NewModel("all-train")
	in := m.AddInput("in", 4)
	h := m.AddNode("h", layers.NewDense(4, 2, layers.ActNone, 1), in)
	h.Trainable = true
	m.SetOutputs(h)
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	s1 := TheoreticalSpeedup([]WorkItem{{Model: m, Prof: prof, Epochs: 1, BatchSize: 8}})
	// Only the input layer is materializable and it has no compute cost.
	if s1 != 1 {
		t.Errorf("all-trainable speedup = %v, want 1", s1)
	}
}
