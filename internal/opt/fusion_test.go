package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/profile"
	"nautilus/internal/tensor"
)

// fuseModels runs FUSE OPT under Algorithm 1.
func fuseModels(items []WorkItem, sigs map[graph.Signature]bool, cfg FuseConfig) ([]*FusedGroup, error) {
	f, err := NewFuser(FuserGreedy, 0)
	if err != nil {
		return nil, err
	}
	return f.Fuse(items, sigs, cfg)
}

func TestFuseModelsMergesSharedFrozenWork(t *testing.T) {
	items, mm := miniWorkload(t, 4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) >= len(items) {
		t.Errorf("fusion produced %d groups from %d models; expected fewer", len(groups), len(items))
	}
	// Fused total cost must not exceed the unfused total.
	var unfused int64
	for _, it := range items {
		plan, err := SolveReusePlan(it.Prof, res.Sigs)
		if err != nil {
			t.Fatal(err)
		}
		unfused += plan.CostPerRecord * int64(it.Epochs)
	}
	if TotalPlanCost(groups) > unfused {
		t.Errorf("fused cost %d exceeds unfused %d", TotalPlanCost(groups), unfused)
	}
	// Every source model appears in exactly one group.
	seen := map[*graph.Model]int{}
	for _, g := range groups {
		for _, it := range g.Items {
			seen[it.Model]++
		}
	}
	for _, it := range items {
		if seen[it.Model] != 1 {
			t.Errorf("model %q in %d groups", it.Model.Name, seen[it.Model])
		}
	}
}

func TestFuseModelsRespectsBatchSizeBoundary(t *testing.T) {
	items, mm := miniWorkload(t, 4)
	// Two batch-size groups.
	items[0].BatchSize = 16
	items[1].BatchSize = 16
	items[2].BatchSize = 32
	items[3].BatchSize = 32
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		bs := g.Items[0].BatchSize
		for _, it := range g.Items {
			if it.BatchSize != bs {
				t.Errorf("group mixes batch sizes %d and %d", bs, it.BatchSize)
			}
		}
	}
	if len(groups) < 2 {
		t.Error("batch-size boundary must prevent full fusion")
	}
}

func TestFuseModelsTightMemoryBudgetPreventsFusion(t *testing.T) {
	items, mm := miniWorkload(t, 3)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Budget below even a single model's workspace: nothing fuses.
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(items) {
		t.Errorf("got %d groups with 1-byte budget, want %d singletons", len(groups), len(items))
	}
	// Generous budget: fewer groups.
	groups2, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups2) >= len(groups) {
		t.Error("raising the memory budget should enable fusion")
	}
}

func TestFusedGroupMemoryWithinBudget(t *testing.T) {
	items, mm := miniWorkload(t, 4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1 << 29)
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if len(g.Items) > 1 && g.PeakMemBytes > budget {
			t.Errorf("fused group of %d models exceeds budget: %d > %d", len(g.Items), g.PeakMemBytes, budget)
		}
	}
}

func TestFuseModelsSingleModelNoFusion(t *testing.T) {
	items, mm := miniWorkload(t, 1)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0].Items) != 1 {
		t.Error("single model must stay a singleton group")
	}
}

// fusedExecutionModel builds the executable plan model of a fused group
// and checks it trains both branches equivalently to separate models.
func TestFusedPlanModelTrainsBothBranches(t *testing.T) {
	items, _ := miniWorkload(t, 2)
	// Force same batch/epochs so they fuse; empty materialized set keeps
	// the test focused on fusion itself.
	groups, err := fuseModels(items, map[graph.Signature]bool{}, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 {
		t.Fatalf("expected one fused group, got %d", len(groups))
	}
	g := groups[0]
	pm, _, err := BuildPlanModel(g.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm.Outputs) != 2 {
		t.Fatalf("fused plan model has %d outputs, want 2", len(pm.Outputs))
	}

	// Forward the fused model and each source model on the same batch.
	rng := rand.New(rand.NewSource(11))
	seq := 12
	ids := tensor.New(2, seq)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(1024))
	}
	feeds := map[string]*tensor.Tensor{}
	for _, in := range pm.Inputs() {
		feeds[in.Name] = ids
	}
	fusedTape, err := pm.Forward(feeds, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range g.Items {
		srcTape, err := it.Model.Forward(map[string]*tensor.Tensor{"ids": ids}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !fusedTape.Output(pm.Outputs[i]).AllClose(srcTape.Output(it.Model.Outputs[0]), 1e-5) {
			t.Errorf("fused branch %d diverges from source model", i)
		}
	}
}

func TestEstimatePeakMemoryComponents(t *testing.T) {
	items, _ := miniWorkload(t, 1)
	plan, err := SolveReusePlan(items[0].Prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimatePeakMemory(plan, 16, 2)
	if est.ParamBytes <= 0 || est.ActivationPeak <= 0 {
		t.Errorf("estimate has empty components: %+v", est)
	}
	if est.WorkspaceBytes != items[0].Prof.HW.WorkspaceBytes {
		t.Error("workspace not taken from hardware config")
	}
	// Optimizer state covers trainable params at 2 bytes/byte.
	_, trainable := items[0].Model.ParamCount()
	if trainBytes := 4 * trainable; est.OptimizerBytes != 2*trainBytes {
		t.Errorf("optimizer bytes %d, want %d", est.OptimizerBytes, 2*trainBytes)
	}
	if est.Total() != est.ParamBytes+est.OptimizerBytes+est.WorkspaceBytes+est.ActivationPeak {
		t.Error("Total() does not sum components")
	}
}

func TestEstimatePeakMemoryScalesWithBatch(t *testing.T) {
	items, _ := miniWorkload(t, 1)
	plan, err := SolveReusePlan(items[0].Prof, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := EstimatePeakMemory(plan, 8, 2)
	b := EstimatePeakMemory(plan, 32, 2)
	if b.ActivationPeak != 4*a.ActivationPeak {
		t.Errorf("activation peak should scale linearly with batch: %d vs %d", a.ActivationPeak, b.ActivationPeak)
	}
	if b.ParamBytes != a.ParamBytes {
		t.Error("param bytes must not depend on batch size")
	}
}

// TestEstimatePeakMemoryUpperBoundsRealExecution checks the estimator
// against the real engine: the analytical activation peak must
// upper-bound the live bytes the tape meters over a training step.
func TestEstimatePeakMemoryUpperBoundsRealExecution(t *testing.T) {
	m := graph.NewModel("memcheck")
	in := m.AddInput("in", 16)
	d1 := m.AddNode("d1", layers.NewDense(16, 32, layers.ActTanh, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(32, 32, layers.ActTanh, 2), d1)
	h := m.AddNode("h", layers.NewDense(32, 4, layers.ActNone, 3), d2)
	d1.Trainable = true
	d2.Trainable = true
	h.Trainable = true
	m.SetOutputs(h)
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	plan := CurrentPracticePlan(prof)
	batch := 8
	est := EstimatePeakMemory(plan, batch, 0)

	x := tensor.New(batch, 16)
	tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tape.Backward(map[string]*tensor.Tensor{"h": tensor.New(batch, 4)}); err != nil {
		t.Fatal(err)
	}
	real := tape.PeakBytes()
	if est.ActivationPeak < real || real == 0 {
		t.Errorf("estimated peak %d below the training step's metered peak %d", est.ActivationPeak, real)
	}
}

func TestFusionGainsGrowWithModelCount(t *testing.T) {
	// More models sharing a trunk → more frozen work to share → larger
	// relative savings (the Figure 9 trend).
	ratios := map[int]float64{}
	for _, n := range []int{2, 4} {
		items, mm := miniWorkload(t, n)
		res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 0, MaxRecords: 100})
		if err != nil {
			t.Fatal(err)
		}
		groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
		if err != nil {
			t.Fatal(err)
		}
		var unfused int64
		for _, it := range items {
			plan, err := SolveReusePlan(it.Prof, res.Sigs)
			if err != nil {
				t.Fatal(err)
			}
			unfused += plan.CostPerRecord * int64(it.Epochs)
		}
		ratios[n] = float64(unfused) / float64(TotalPlanCost(groups))
	}
	if ratios[4] < ratios[2] {
		t.Errorf("fusion speedup should grow with model count: %v", ratios)
	}
	if ratios[4] <= 1 {
		t.Errorf("fusion of 4 models should save work: ratio %v", ratios[4])
	}
}

var _ = mmg.Build // keep import if refactors drop direct uses

// TestFuseModelsPropertyNeverWorse: on random small workloads, the fused
// plan's total cost never exceeds the unfused total and every multi-model
// group respects the memory budget.
func TestFuseModelsPropertyNeverWorse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shared := layers.NewDense(6, 8, layers.ActTanh, 77)
		n := 2 + rng.Intn(3)
		var items []WorkItem
		for i := 0; i < n; i++ {
			m := graph.NewModel(fmt.Sprintf("p%d", i))
			in := m.AddInput("in", 6)
			s := m.AddNode("s", shared, in)
			h := m.AddNode("h", layers.NewDense(8, 2, layers.ActNone, rng.Int63()), s)
			h.Trainable = true
			m.SetOutputs(h)
			prof, err := profile.Profile(m, miniHW)
			if err != nil {
				return false
			}
			items = append(items, WorkItem{
				Model: m, Prof: prof,
				Epochs:    1 + rng.Intn(3),
				BatchSize: []int{8, 16}[rng.Intn(2)],
				LR:        1e-3,
			})
		}
		budget := int64(1 << (25 + rng.Intn(16)))
		groups, err := fuseModels(items, nil, FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2})
		if err != nil {
			return false
		}
		var unfused int64
		for _, it := range items {
			plan, err := SolveReusePlan(it.Prof, nil)
			if err != nil {
				return false
			}
			unfused += plan.CostPerRecord * int64(it.Epochs)
		}
		if TotalPlanCost(groups) > unfused {
			return false
		}
		covered := 0
		for _, g := range groups {
			covered += len(g.Items)
			if len(g.Items) > 1 && g.PeakMemBytes > budget {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFuseStatsAndGroupName pins the Algorithm 1 search counters and the
// group naming used by traces and conformance reports.
func TestFuseStatsAndGroupName(t *testing.T) {
	items, mm := miniWorkload(t, 4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	stats := &FuseStats{}
	groups, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	merges := len(items) - len(groups)
	if stats.Rounds != merges {
		t.Errorf("Rounds = %d, want one per merge (%d)", stats.Rounds, merges)
	}
	if stats.PairsEvaluated < merges {
		t.Errorf("PairsEvaluated = %d, below the %d merges performed", stats.PairsEvaluated, merges)
	}
	for _, g := range groups {
		want := g.Items[0].Model.Name
		if len(g.Items) > 1 {
			want = fmt.Sprintf("%s+%d", want, len(g.Items)-1)
		}
		if g.Name() != want {
			t.Errorf("group name %q, want %q", g.Name(), want)
		}
	}

	// With a 1-byte budget, every evaluated pair is rejected.
	stats2 := &FuseStats{}
	if _, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 1, OptimizerSlotBytes: 2, Stats: stats2}); err != nil {
		t.Fatal(err)
	}
	if stats2.Rounds != 0 {
		t.Errorf("Rounds = %d under 1-byte budget, want 0", stats2.Rounds)
	}
	if stats2.PairsRejected != stats2.PairsEvaluated || stats2.PairsEvaluated == 0 {
		t.Errorf("rejected %d of %d evaluated; all should be rejected", stats2.PairsRejected, stats2.PairsEvaluated)
	}
}

// TestBuildGroupRejectsComputedNodeWithPrunedParent: a plan that computes a
// node while pruning one of its parents has no peak-memory replay — the
// map-keyed estimator looked the pruned parent up as position 0 and charged
// its consumers to the first retained tensor, a wrong peak and no error.
// The group builder refuses the plan, naming group, node and parent; the
// estimator itself holds nothing for the missing tensor.
func TestBuildGroupRejectsComputedNodeWithPrunedParent(t *testing.T) {
	m := graph.NewModel("bad")
	in := m.AddInput("in", 16)
	d1 := m.AddNode("d1", layers.NewDense(16, 64, layers.ActTanh, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(64, 8, layers.ActTanh, 2), d1)
	h := m.AddNode("h", layers.NewDense(8, 2, layers.ActNone, 3), d2)
	d1.Trainable, h.Trainable = true, true // nothing merges: nodes keep their model-qualified names
	m.SetOutputs(h)
	prof, err := profile.Profile(m, miniHW)
	if err != nil {
		t.Fatal(err)
	}
	items := []WorkItem{{Model: m, Prof: prof, Epochs: 1, BatchSize: 8}}
	legal, err := new(scratch).price(number(items), items, nil, UnmodifiedPlan, AdamSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	g, err := legal.build()
	if err != nil {
		t.Fatalf("legal plan refused: %v", err)
	}

	bad := *legal
	bad.actions = append([]Action(nil), legal.actions...)
	bad.actions[g.MM.NodeOf(m, d1).Index()] = Pruned // d2 stays computed
	_, err = bad.build()
	if err == nil {
		t.Fatal("plan computing d2 over a pruned d1 was accepted")
	}
	for _, want := range []string{"group bad", `"bad/d2"`, `"bad/d1"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// The replay ignores the edge to the tensor that does not exist: what
	// is left is the legal plan minus d1's activation while d2 runs.
	badPlan := &Plan{Prof: g.Plan.Prof, Actions: bad.actions}
	if got, max := EstimatePeakMemory(badPlan, 8, AdamSlotBytes), EstimatePeakMemory(g.Plan, 8, AdamSlotBytes); got.ActivationPeak <= 0 || got.ActivationPeak > max.ActivationPeak {
		t.Errorf("illegal plan's activation peak %d, legal plan's %d", got.ActivationPeak, max.ActivationPeak)
	}
}
