package verify_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
)

// chainModel builds in → f1 (frozen) → f2 (frozen) → head (trainable):
// a minimal model with a two-deep materializable frontier.
func chainModel(t *testing.T, name string, seed int64) (*graph.Model, *profile.ModelProfile) {
	t.Helper()
	m := graph.NewModel(name)
	in := m.AddInput("in", 8)
	f1 := m.AddNode("f1", layers.NewDense(8, 8, layers.ActNone, seed), in)
	f2 := m.AddNode("f2", layers.NewDense(8, 8, layers.ActNone, seed+1), f1)
	head := m.AddNode("head", layers.NewDense(8, 4, layers.ActNone, seed+2), f2)
	head.Trainable = true
	m.SetOutputs(head)
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	return m, prof
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verification accepted an illegal input; want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

// TestRejectsCyclicDAG mutates a node's Parents to close a cycle and
// checks the verifier names the offending node.
func TestRejectsCyclicDAG(t *testing.T) {
	m, _ := chainModel(t, "cyclic", 1)
	f1, head := m.Node("f1"), m.Node("head")
	f1.Parents[0] = head // in → f1 → f2 → head → f1: a cycle
	wantErr(t, verify.Model(m), "cycle through node")
}

// TestRejectsShapeMismatch breaks shape consistency (a dense layer fed the
// wrong width) and checks the verifier converts the inference panic into a
// descriptive error.
func TestRejectsShapeMismatch(t *testing.T) {
	m := graph.NewModel("badshape")
	in := m.AddInput("in", 8)
	d := m.AddNode("d", layers.NewDense(5, 4, layers.ActNone, 1), in) // wants width 5, gets 8
	m.SetOutputs(d)
	wantErr(t, verify.Model(m), "shape inference failed")
}

// TestRejectsLoadOfNonMaterializedSig forces a plan to load an
// intermediate whose signature is not in V.
func TestRejectsLoadOfNonMaterializedSig(t *testing.T) {
	m, prof := chainModel(t, "loader", 10)
	plan := opt.CurrentPracticePlan(prof)
	f1 := m.Node("f1")
	plan.CostPerRecord += prof.Layer(f1).LoadFLOPs - prof.Layer(f1).CompFLOPs
	plan.Actions[f1.Index()] = opt.Loaded

	// Legal when V contains f1's signature...
	if err := verify.Plan(plan, map[graph.Signature]bool{prof.Sig(f1): true}); err != nil {
		t.Fatalf("plan loading a materialized sig rejected: %v", err)
	}
	// ...illegal against an empty V.
	wantErr(t, verify.Plan(plan, map[graph.Signature]bool{}), "not in the materialized set V")
}

// TestRejectsLoadOfNonMaterializableNode loads a trainable node — illegal
// regardless of V (Definition 2.4).
func TestRejectsLoadOfNonMaterializableNode(t *testing.T) {
	m, prof := chainModel(t, "trainload", 20)
	plan := opt.CurrentPracticePlan(prof)
	head := m.Node("head")
	plan.CostPerRecord += prof.Layer(head).LoadFLOPs - prof.Layer(head).CompFLOPs
	plan.Actions[head.Index()] = opt.Loaded
	wantErr(t, verify.Plan(plan, nil), "not materializable")
}

// TestRejectsComputedNodeWithPrunedInput prunes a node another computed
// node still consumes.
func TestRejectsComputedNodeWithPrunedInput(t *testing.T) {
	m, prof := chainModel(t, "pruned", 30)
	plan := opt.CurrentPracticePlan(prof)
	f1 := m.Node("f1")
	plan.CostPerRecord -= prof.Layer(f1).CompFLOPs
	plan.Actions[f1.Index()] = opt.Pruned
	wantErr(t, verify.Plan(plan, nil), "is pruned")
}

// TestRejectsPrunedOutput prunes a model output.
func TestRejectsPrunedOutput(t *testing.T) {
	_, prof := chainModel(t, "noout", 40)
	plan := opt.CurrentPracticePlan(prof)
	for n, a := range plan.Actions {
		if a == opt.Computed {
			plan.CostPerRecord -= prof.Layers[n].CompFLOPs
		} else {
			plan.CostPerRecord -= prof.Layers[n].LoadFLOPs
		}
		plan.Actions[n] = opt.Pruned
	}
	wantErr(t, verify.Plan(plan, nil), "output")
}

// TestRejectsCostMismatch corrupts the reported Equation-5 cost.
func TestRejectsCostMismatch(t *testing.T) {
	_, prof := chainModel(t, "cost", 50)
	plan := opt.CurrentPracticePlan(prof)
	plan.CostPerRecord++
	wantErr(t, verify.Plan(plan, nil), "Equation 5")
}

// buildGroup wraps items into a verified-shape FusedGroup the adversarial
// tests can then corrupt.
func buildGroup(t *testing.T, items []opt.WorkItem) *opt.FusedGroup {
	t.Helper()
	ms := make([]*graph.Model, len(items))
	for i, it := range items {
		ms[i] = it.Model
	}
	mm, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Profile(mm.Graph, items[0].Prof.HW)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.SolveReusePlan(prof, map[graph.Signature]bool{})
	if err != nil {
		t.Fatal(err)
	}
	return &opt.FusedGroup{Items: items, MM: mm, Plan: plan, PeakMemBytes: 1}
}

// TestRejectsMixedBatchFusionGroup fuses two items with different batch
// sizes — illegal because fused branches train on shared mini-batches.
func TestRejectsMixedBatchFusionGroup(t *testing.T) {
	m1, p1 := chainModel(t, "a", 100)
	m2, p2 := chainModel(t, "b", 200)
	g := buildGroup(t, []opt.WorkItem{
		{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16},
		{Model: m2, Prof: p2, Epochs: 2, BatchSize: 32},
	})
	wantErr(t, verify.Group(g, 0, nil), "mixed batch sizes")
}

// TestRejectsMixedEpochFusionGroup fuses two items with different epoch
// counts — illegal because the fused model runs one training loop.
func TestRejectsMixedEpochFusionGroup(t *testing.T) {
	m1, p1 := chainModel(t, "a", 100)
	m2, p2 := chainModel(t, "b", 200)
	g := buildGroup(t, []opt.WorkItem{
		{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16},
		{Model: m2, Prof: p2, Epochs: 5, BatchSize: 16},
	})
	wantErr(t, verify.Group(g, 0, nil), "mixed epoch counts")
}

// TestRejectsOverBudgetFusedGroup checks B_mem enforcement on fused
// groups (and that singletons are exempt: they are the unfused baseline).
func TestRejectsOverBudgetFusedGroup(t *testing.T) {
	m1, p1 := chainModel(t, "a", 100)
	m2, p2 := chainModel(t, "b", 200)
	g := buildGroup(t, []opt.WorkItem{
		{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16},
		{Model: m2, Prof: p2, Epochs: 2, BatchSize: 16},
	})
	g.PeakMemBytes = 1 << 40
	wantErr(t, verify.Group(g, 1<<30, nil), "exceeds B_mem")

	single := buildGroup(t, []opt.WorkItem{{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16}})
	single.PeakMemBytes = 1 << 40
	if err := verify.Group(single, 1<<30, nil); err != nil {
		t.Fatalf("singleton group rejected for memory: %v", err)
	}
}

// TestRejectsIncompletePartition checks Groups demands every work item be
// trained exactly once.
func TestRejectsIncompletePartition(t *testing.T) {
	m1, p1 := chainModel(t, "a", 100)
	m2, p2 := chainModel(t, "b", 200)
	i1 := opt.WorkItem{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16}
	i2 := opt.WorkItem{Model: m2, Prof: p2, Epochs: 2, BatchSize: 16}
	g1 := buildGroup(t, []opt.WorkItem{i1})
	g2 := buildGroup(t, []opt.WorkItem{i2})
	wantErr(t, verify.Groups([]*opt.FusedGroup{g1}, []opt.WorkItem{i1, i2}, 0, nil), "no group for model")
	wantErr(t, verify.Groups([]*opt.FusedGroup{g1, g1, g2}, []opt.WorkItem{i1, i2}, 0, nil), "more than once")
}

// TestRejectsOverBudgetMaterialization hand-builds a MatResult whose
// storage footprint exceeds B_disk.
func TestRejectsOverBudgetMaterialization(t *testing.T) {
	m, prof := chainModel(t, "mat", 300)
	f1 := m.Node("f1")
	const records = 100
	plan := opt.CurrentPracticePlan(prof)
	item := opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 16}
	res := &opt.MatResult{
		Materialized: []opt.MatCandidate{{
			Node: f1, Sig: prof.Sig(f1), BytesPerRec: prof.Layer(f1).OutBytes, SharedBy: 1,
		}},
		Sigs:           map[graph.Signature]bool{prof.Sig(f1): true},
		Plans:          map[*graph.Model]*opt.Plan{m: plan},
		TotalCostFLOPs: plan.CostPerRecord * records * 2,
		StorageBytes:   prof.Layer(f1).OutBytes * records,
	}
	cfg := opt.MatConfig{MaxRecords: records, DiskBudgetBytes: res.StorageBytes}
	if err := verify.MatResult(res, []opt.WorkItem{item}, cfg); err != nil {
		t.Fatalf("within-budget result rejected: %v", err)
	}
	cfg.DiskBudgetBytes = res.StorageBytes - 1
	wantErr(t, verify.MatResult(res, []opt.WorkItem{item}, cfg), "exceeds B_disk")
}

// TestRejectsInconsistentMatResult corrupts the Sigs index and the storage
// sum.
func TestRejectsInconsistentMatResult(t *testing.T) {
	m, prof := chainModel(t, "mat2", 400)
	f1 := m.Node("f1")
	const records = 10
	plan := opt.CurrentPracticePlan(prof)
	item := opt.WorkItem{Model: m, Prof: prof, Epochs: 1, BatchSize: 16}
	fresh := func() *opt.MatResult {
		return &opt.MatResult{
			Materialized: []opt.MatCandidate{{
				Node: f1, Sig: prof.Sig(f1), BytesPerRec: prof.Layer(f1).OutBytes, SharedBy: 1,
			}},
			Sigs:           map[graph.Signature]bool{prof.Sig(f1): true},
			Plans:          map[*graph.Model]*opt.Plan{m: plan},
			TotalCostFLOPs: plan.CostPerRecord * records,
			StorageBytes:   prof.Layer(f1).OutBytes * records,
		}
	}
	cfg := opt.MatConfig{MaxRecords: records, DiskBudgetBytes: 1 << 40}

	res := fresh()
	res.StorageBytes++
	wantErr(t, verify.MatResult(res, []opt.WorkItem{item}, cfg), "recomputed footprint")

	res = fresh()
	res.Sigs[graph.Signature(12345)] = true
	wantErr(t, verify.MatResult(res, []opt.WorkItem{item}, cfg), "absent from the materialized set")

	res = fresh()
	res.TotalCostFLOPs++
	wantErr(t, verify.MatResult(res, []opt.WorkItem{item}, cfg), "Equation 6")
}

// randomWorkload builds nModels random feature-transfer-style candidates
// sharing a frozen trunk of random depth, with randomized widths, batch
// sizes, and epochs — the optimizer input for the property test.
func randomWorkload(t *testing.T, rng *rand.Rand, nModels int) []opt.WorkItem {
	t.Helper()
	trunkDepth := 1 + rng.Intn(3)
	trunkW := 4 + rng.Intn(8)
	trunkSeeds := make([]int64, trunkDepth)
	for i := range trunkSeeds {
		trunkSeeds[i] = rng.Int63()
	}
	batches := []int{8, 16}
	var items []opt.WorkItem
	for i := 0; i < nModels; i++ {
		m := graph.NewModel(fmt.Sprintf("rw%d", i))
		n := m.AddInput("in", trunkW)
		// Shared frozen trunk: identical seeds → identical signatures →
		// mmg merges these nodes across candidates.
		for d := 0; d < trunkDepth; d++ {
			n = m.AddNode(fmt.Sprintf("trunk%d", d), layers.NewDense(trunkW, trunkW, layers.ActNone, trunkSeeds[d]), n)
		}
		// Candidate-specific depth: possibly more frozen layers, then a
		// trainable head.
		w := trunkW
		extra := rng.Intn(3)
		for d := 0; d < extra; d++ {
			nw := 4 + rng.Intn(8)
			n = m.AddNode(fmt.Sprintf("mid%d", d), layers.NewDense(w, nw, layers.ActNone, rng.Int63()), n)
			w = nw
		}
		head := m.AddNode("head", layers.NewDense(w, 2, layers.ActNone, rng.Int63()), n)
		head.Trainable = true
		m.SetOutputs(head)
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, opt.WorkItem{
			Model:     m,
			Prof:      prof,
			Epochs:    1 + rng.Intn(4),
			BatchSize: batches[rng.Intn(len(batches))],
		})
	}
	return items
}

// TestOptimizerOutputsAlwaysVerify is the property test: on random
// workloads, whatever OptimizeMaterialization and FUSE OPT emit must
// pass static verification under the budgets they were solved with.
func TestOptimizerOutputsAlwaysVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fuser, err := opt.NewFuser(opt.FuserGreedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		items := randomWorkload(t, rng, 2+rng.Intn(3))
		ms := make([]*graph.Model, len(items))
		for i, it := range items {
			ms[i] = it.Model
		}
		mm, err := mmg.Build(ms...)
		if err != nil {
			t.Fatal(err)
		}
		matCfg := opt.MatConfig{
			// Random budget: sometimes generous, sometimes tight, sometimes zero.
			DiskBudgetBytes: int64(rng.Intn(1 << 16)),
			MaxRecords:      1 + rng.Intn(200),
		}
		res, err := opt.OptimizeMaterialization(mm, items, matCfg)
		if err != nil {
			t.Fatalf("trial %d: optimize: %v", trial, err)
		}
		if err := verify.MatResult(res, items, matCfg); err != nil {
			t.Fatalf("trial %d: materialization output fails verification: %v", trial, err)
		}
		memBudget := int64(1 + rng.Intn(1<<26))
		groups, err := fuser.Fuse(items, res.Sigs, opt.FuseConfig{
			MemBudgetBytes:     memBudget,
			OptimizerSlotBytes: 2,
		})
		if err != nil {
			t.Fatalf("trial %d: fuse: %v", trial, err)
		}
		if err := verify.Groups(groups, items, memBudget, res.Sigs); err != nil {
			t.Fatalf("trial %d: fusion output fails verification: %v", trial, err)
		}
	}
}
