package exec

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/train"
)

// miniHW makes loading attractive at mini scale (see opt tests).
var miniHW = profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e10, WorkspaceBytes: 1 << 28}

// buildWorkload constructs n mini feature-transfer models over a fresh
// hub. Head seeds are deterministic, so two calls produce behaviourally
// identical (but independent) workloads.
func buildWorkload(t testing.TB, n int) ([]opt.WorkItem, *mmg.MultiModel) {
	t.Helper()
	return workloadOf(t, bertCandidates(t, n)...)
}

// bertCandidates returns n feature-transfer candidates over one BERT-mini
// trunk, alternating the last and second-last hidden layer as features.
func bertCandidates(t testing.TB, n int) []*graph.Model {
	t.Helper()
	hub := models.NewBERTHub(models.BERTMini())
	strats := []models.FeatureStrategy{models.FeatLastHidden, models.FeatSecondLastHidden}
	var ms []*graph.Model
	for i := 0; i < n; i++ {
		m, err := hub.FeatureTransferModel(fmt.Sprintf("m%d", i), strats[i%len(strats)], 9, int64(500+i))
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// workloadOf profiles the candidates and merges them into one workload.
func workloadOf(t testing.TB, ms ...*graph.Model) ([]opt.WorkItem, *mmg.MultiModel) {
	t.Helper()
	var items []opt.WorkItem
	for _, m := range ms {
		prof, err := profile.Profile(m, miniHW)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8, LR: 1e-3})
	}
	mm, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return items, mm
}

// nerSnapshot labels a couple of cycles of synthetic NER data.
func nerSnapshot(t testing.TB, cycles int) data.Snapshot {
	t.Helper()
	pool := data.SynthNER(data.NERConfig{Records: 400, Seq: 12, Vocab: 1024, Types: 4, Seed: 99})
	lab := data.NewLabeler(pool, 40, 32)
	var snap data.Snapshot
	for i := 0; i < cycles; i++ {
		snap, _, _ = lab.NextCycle()
	}
	return snap
}

func newTestStore(t testing.TB) (*storage.TensorStore, *Metrics) {
	t.Helper()
	m := NewMetrics()
	s, err := storage.NewTensorStore(t.TempDir(), m.Disk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, m
}

func TestMaterializerAppendAndCount(t *testing.T) {
	items, mm := buildWorkload(t, 2)
	res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Materialized) == 0 {
		t.Fatal("expected materialization at mini hardware ratios")
	}
	store, _ := newTestStore(t)
	mz, err := NewMaterializer(store, mm, res.Sigs)
	if err != nil {
		t.Fatal(err)
	}
	snap := nerSnapshot(t, 2)
	if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
		t.Fatal(err)
	}
	if err := mz.SyncSplit(Valid, snap.ValidX); err != nil {
		t.Fatal(err)
	}
	for sig := range res.Sigs {
		n, err := store.Count(storeKey(sig, Train))
		if err != nil {
			t.Fatal(err)
		}
		if n != snap.TrainSize() {
			t.Errorf("sig %v: %d train records materialized, want %d", sig, n, snap.TrainSize())
		}
		nv, _ := store.Count(storeKey(sig, Valid))
		if nv != snap.ValidSize() {
			t.Errorf("sig %v: %d valid records, want %d", sig, nv, snap.ValidSize())
		}
	}
}

func TestMaterializerNilWhenNothingChosen(t *testing.T) {
	_, mm := buildWorkload(t, 1)
	store, _ := newTestStore(t)
	mz, err := NewMaterializer(store, mm, map[graph.Signature]bool{})
	if err != nil {
		t.Fatal(err)
	}
	if mz != nil {
		t.Error("empty set should yield a nil materializer")
	}
}

func TestMaterializerIncrementalMatchesBulk(t *testing.T) {
	// Syncing a grown split onto a store that holds its prefix must equal
	// materializing the whole split at once.
	_, mm := buildWorkload(t, 1)
	// Pick the last block's signature.
	mat := mm.MaterializableNodes()
	sig := mm.Sig(mat[len(mat)-1])
	sigs := map[graph.Signature]bool{sig: true}

	pool := data.SynthNER(data.NERConfig{Records: 60, Seq: 12, Vocab: 1024, Types: 4, Seed: 7})
	first := make([]int, 30)
	for i := range first {
		first[i] = i
	}
	xAll, prefix := pool.X, pool.GatherX(first)

	storeA, _ := newTestStore(t)
	mzA, err := NewMaterializer(storeA, mm, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mzA.SyncSplit(Train, prefix); err != nil {
		t.Fatal(err)
	}
	if err := mzA.SyncSplit(Train, xAll); err != nil {
		t.Fatal(err)
	}

	storeB, _ := newTestStore(t)
	mzB, err := NewMaterializer(storeB, mm, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := mzB.SyncSplit(Train, xAll); err != nil {
		t.Fatal(err)
	}

	idx := make([]int, 60)
	for i := range idx {
		idx[i] = i
	}
	a, err := storeA.ReadRowsIn(storeKey(sig, Train), idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := storeB.ReadRowsIn(storeKey(sig, Train), idx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !a.AllClose(b, 1e-6) {
		t.Error("incremental materialization differs from bulk")
	}
}

func TestTrainGroupCurrentPracticeLearns(t *testing.T) {
	items, _ := buildWorkload(t, 1)
	items[0].Epochs = 8 // enough passes for the fresh head to converge
	snap := nerSnapshot(t, 4)
	store, metrics := newTestStore(t)
	tr := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 1, Metrics: metrics}
	g := singleton(t, items[0], nil)
	res, err := tr.TrainGroup(g, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	// Synthetic NER has ~70% O tags; a trained model must beat the
	// majority-class baseline on token accuracy.
	if res[0].ValAcc < 0.75 {
		t.Errorf("validation accuracy %v, want >= 0.75", res[0].ValAcc)
	}
	if metrics.TrainSteps == 0 || metrics.ComputeFLOPs == 0 {
		t.Error("metrics not accumulated")
	}
}

// singleton builds a one-model group with the given materialized set.
func singleton(t testing.TB, it opt.WorkItem, sigs map[graph.Signature]bool) *opt.FusedGroup {
	t.Helper()
	g, err := opt.BuildGroup([]opt.WorkItem{it}, sigs, opt.ReusePlan, opt.AdamSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fuse runs FUSE OPT (Algorithm 1) with B_mem out of the way.
func fuse(t testing.TB, items []opt.WorkItem, sigs map[graph.Signature]bool) []*opt.FusedGroup {
	t.Helper()
	fuser, err := opt.NewFuser(opt.FuserGreedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fuser.Fuse(items, sigs, opt.FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: opt.AdamSlotBytes})
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestNautilusPlanStatisticallyEquivalent is the Section 5.2 experiment in
// miniature: training optimized (materialized + fused) plans reaches the
// same validation accuracy as Current Practice, because the executions are
// logically equivalent SGD.
func TestNautilusPlanStatisticallyEquivalent(t *testing.T) {
	snap := nerSnapshot(t, 3)

	// Path A: current practice on workload copy 1.
	itemsA, _ := buildWorkload(t, 2)
	storeA, _ := newTestStore(t)
	trA := &Trainer{Store: storeA, Loss: train.SoftmaxCrossEntropy{}, Seed: 42}
	accA := map[string]float64{}
	for _, it := range itemsA {
		g := singleton(t, it, nil)
		res, err := trA.TrainGroup(g, snap)
		if err != nil {
			t.Fatal(err)
		}
		accA[it.Model.Name] = res[0].ValAcc
	}

	// Path B: Nautilus plans on workload copy 2 (identical seeds).
	itemsB, mmB := buildWorkload(t, 2)
	matRes, err := opt.OptimizeMaterialization(mmB, itemsB, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	storeB, _ := newTestStore(t)
	if mz, err := NewMaterializer(storeB, mmB, matRes.Sigs); err != nil {
		t.Fatal(err)
	} else if mz != nil {
		if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
			t.Fatal(err)
		}
		if err := mz.SyncSplit(Valid, snap.ValidX); err != nil {
			t.Fatal(err)
		}
	}
	groups := fuse(t, itemsB, matRes.Sigs)
	trB := &Trainer{Store: storeB, Loss: train.SoftmaxCrossEntropy{}, Seed: 42}
	accB := map[string]float64{}
	for _, g := range groups {
		res, err := trB.TrainGroup(g, snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			accB[r.Item.Model.Name] = r.ValAcc
		}
	}

	for name, a := range accA {
		b, ok := accB[name]
		if !ok {
			t.Fatalf("model %s missing from Nautilus results", name)
		}
		if math.Abs(a-b) > 0.02 {
			t.Errorf("model %s: current practice acc %.4f vs Nautilus %.4f", name, a, b)
		}
	}
}

func TestTrainGroupFusedSharesTrunkCompute(t *testing.T) {
	// Two fused models must cost less compute than two singletons.
	snap := nerSnapshot(t, 2)
	items, _ := buildWorkload(t, 2)

	store1, m1 := newTestStore(t)
	tr1 := &Trainer{Store: store1, Loss: train.SoftmaxCrossEntropy{}, Seed: 7, Metrics: m1}
	for _, it := range items {
		if _, err := tr1.TrainGroup(singleton(t, it, nil), snap); err != nil {
			t.Fatal(err)
		}
	}

	items2, _ := buildWorkload(t, 2)
	groups := fuse(t, items2, map[graph.Signature]bool{})
	if len(groups) != 1 {
		t.Fatalf("expected full fusion, got %d groups", len(groups))
	}
	store2, m2 := newTestStore(t)
	tr2 := &Trainer{Store: store2, Loss: train.SoftmaxCrossEntropy{}, Seed: 7, Metrics: m2}
	if _, err := tr2.TrainGroup(groups[0], snap); err != nil {
		t.Fatal(err)
	}
	if m2.ComputeFLOPs >= m1.ComputeFLOPs {
		t.Errorf("fused compute %d not below unfused %d", m2.ComputeFLOPs, m1.ComputeFLOPs)
	}
}

func TestTrainGroupLoadsMaterializedFeatures(t *testing.T) {
	snap := nerSnapshot(t, 2)
	items, mm := buildWorkload(t, 1)
	res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	store, metrics := newTestStore(t)
	mz, err := NewMaterializer(store, mm, res.Sigs)
	if err != nil {
		t.Fatal(err)
	}
	if mz == nil {
		t.Fatal("expected materialization")
	}
	if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
		t.Fatal(err)
	}
	if err := mz.SyncSplit(Valid, snap.ValidX); err != nil {
		t.Fatal(err)
	}
	tr := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 3, Metrics: metrics}
	g := singleton(t, items[0], res.Sigs)
	if _, _, loaded := g.Plan.CountActions(); loaded == 0 {
		t.Fatal("plan loads nothing; test premise broken")
	}
	before := metrics.Disk.BytesRead()
	if _, err := tr.TrainGroup(g, snap); err != nil {
		t.Fatal(err)
	}
	if metrics.Disk.BytesRead() <= before {
		t.Error("training a loading plan must read from the store")
	}
	if metrics.LoadBytes == 0 {
		t.Error("LoadBytes not accounted")
	}
}

func TestCheckpointSizesTrainableVsFull(t *testing.T) {
	items, _ := buildWorkload(t, 1)
	store, metrics := newTestStore(t)
	tr := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 1, Metrics: metrics}
	g := singleton(t, items[0], nil)
	dir := t.TempDir()

	full := filepath.Join(dir, "full.nckp")
	if err := tr.Checkpoint(g, full, true); err != nil {
		t.Fatal(err)
	}
	fullBytes := metrics.Disk.BytesWritten()
	slim := filepath.Join(dir, "slim.nckp")
	if err := tr.Checkpoint(g, slim, false); err != nil {
		t.Fatal(err)
	}
	slimBytes := metrics.Disk.BytesWritten() - fullBytes
	if slimBytes*2 > fullBytes {
		t.Errorf("trainable-only checkpoint (%d B) should be far smaller than full (%d B)", slimBytes, fullBytes)
	}
}

func TestPrefetchProducesIdenticalResults(t *testing.T) {
	// The prefetch pipeline must not change training outcomes: same
	// batches, same reads, bit-identical accuracies.
	snap := nerSnapshot(t, 2)
	accs := map[bool]float64{}
	for _, prefetch := range []bool{false, true} {
		items, mm := buildWorkload(t, 1)
		res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
		if err != nil {
			t.Fatal(err)
		}
		store, _ := newTestStore(t)
		mz, err := NewMaterializer(store, mm, res.Sigs)
		if err != nil {
			t.Fatal(err)
		}
		if mz != nil {
			if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
				t.Fatal(err)
			}
			if err := mz.SyncSplit(Valid, snap.ValidX); err != nil {
				t.Fatal(err)
			}
		}
		tr := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 5, Prefetch: prefetch}
		out, err := tr.TrainGroup(singleton(t, items[0], res.Sigs), snap)
		if err != nil {
			t.Fatal(err)
		}
		accs[prefetch] = out[0].ValAcc
	}
	if accs[false] != accs[true] {
		t.Errorf("prefetch changed results: %v vs %v", accs[false], accs[true])
	}
}

// Tearing a plan down wholesale is reconciling against an empty V: every
// artifact goes, and SyncSplit re-materializes from row zero.
func TestMaterializerResetDropsArtifacts(t *testing.T) {
	_, mm := buildWorkload(t, 1)
	sig := mm.Sig(mm.MaterializableNodes()[0])
	sigs := map[graph.Signature]bool{sig: true}
	store, _ := newTestStore(t)
	mz, err := NewMaterializer(store, mm, sigs)
	if err != nil {
		t.Fatal(err)
	}
	snap := nerSnapshot(t, 1)
	if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
		t.Fatal(err)
	}
	key := storeKey(sig, Train)
	if n, _ := store.Count(key); n == 0 {
		t.Fatal("nothing materialized")
	}
	if _, err := ReconcileArtifacts(store, sigs, nil); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Count(key); n != 0 {
		t.Errorf("reset left %d records", n)
	}
	if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Count(key); n != snap.TrainSize() {
		t.Errorf("re-sync materialized %d, want %d", n, snap.TrainSize())
	}
}
