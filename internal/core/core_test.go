package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
)

// miniHW: see opt tests — disk fast enough that materialization pays off
// at mini model sizes.
var miniHW = profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e10, WorkspaceBytes: 1 << 28}

// tinyWorkload builds a 4-model feature-transfer candidate set (2 shared
// strategies × 2 learning rates) for fast end-to-end tests.
func tinyWorkload(t *testing.T) ([]opt.WorkItem, *mmg.MultiModel) {
	t.Helper()
	hub := models.NewBERTHub(models.BERTMini())
	strats := []models.FeatureStrategy{models.FeatLastHidden, models.FeatConcatLast4}
	var items []opt.WorkItem
	var ms []*graph.Model
	i := 0
	for _, strat := range strats {
		for _, lr := range []float64{5e-3, 2e-3} {
			m, err := hub.FeatureTransferModel(fmt.Sprintf("t%d", i), strat, 9, int64(800+i))
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profile.Profile(m, miniHW)
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8, LR: lr})
			ms = append(ms, m)
			i++
		}
	}
	mm, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return items, mm
}

func snapshots(t *testing.T, cycles int) []data.Snapshot {
	t.Helper()
	pool := data.SynthNER(data.NERConfig{Records: 600, Seq: 12, Vocab: 1024, Types: 4, Seed: 77})
	lab := data.NewLabeler(pool, 50, 40)
	var out []data.Snapshot
	for i := 0; i < cycles; i++ {
		snap, _, _ := lab.NextCycle()
		out = append(out, snap)
	}
	return out
}

func newMS(t *testing.T, approach Approach) *ModelSelection {
	t.Helper()
	items, mm := tinyWorkload(t)
	cfg := DefaultConfig(t.TempDir())
	cfg.Approach = approach
	cfg.HW = miniHW
	cfg.MaxRecords = 600
	ms, err := New(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	return ms
}

func TestAllApproachesRunEndToEnd(t *testing.T) {
	snaps := snapshots(t, 2)
	for _, approach := range Approaches() {
		approach := approach
		t.Run(string(approach), func(t *testing.T) {
			ms := newMS(t, approach)
			for _, snap := range snaps {
				res, err := ms.Fit(snap)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Results) != 4 {
					t.Fatalf("%d results, want 4", len(res.Results))
				}
				if res.Best.Model == "" || res.Best.ValAcc <= 0 {
					t.Errorf("no best candidate selected: %+v", res.Best)
				}
				for _, r := range res.Results {
					if r.ValAcc < 0 || r.ValAcc > 1 {
						t.Errorf("accuracy %v out of range", r.ValAcc)
					}
				}
			}
		})
	}
}

func TestApproachesAgreeOnAccuracy(t *testing.T) {
	// Section 5.2: all approaches perform logically equivalent SGD, so
	// per-candidate accuracies must match across approaches.
	snaps := snapshots(t, 2)
	accs := map[Approach]map[string]float64{}
	for _, approach := range []Approach{CurrentPractice, Nautilus, MatAll} {
		ms := newMS(t, approach)
		var last *FitResult
		for _, snap := range snaps {
			var err error
			last, err = ms.Fit(snap)
			if err != nil {
				t.Fatal(err)
			}
		}
		m := map[string]float64{}
		for _, r := range last.Results {
			m[r.Model] = r.ValAcc
		}
		accs[approach] = m
	}
	for model, cp := range accs[CurrentPractice] {
		for _, other := range []Approach{Nautilus, MatAll} {
			if diff := math.Abs(cp - accs[other][model]); diff > 0.03 {
				t.Errorf("%s on %s differs from current practice by %.4f", other, model, diff)
			}
		}
	}
}

func TestNautilusComputesLessThanCurrentPractice(t *testing.T) {
	snaps := snapshots(t, 2)
	flops := map[Approach]int64{}
	for _, approach := range []Approach{CurrentPractice, Nautilus} {
		ms := newMS(t, approach)
		for _, snap := range snaps {
			if _, err := ms.Fit(snap); err != nil {
				t.Fatal(err)
			}
		}
		flops[approach] = ms.Metrics().ComputeFLOPs
	}
	if flops[Nautilus] >= flops[CurrentPractice] {
		t.Errorf("nautilus compute %d not below current practice %d", flops[Nautilus], flops[CurrentPractice])
	}
}

func TestNautilusWritesLessCheckpointDataThanCurrentPractice(t *testing.T) {
	// Figure 11: Current Practice checkpoints entire models (frozen
	// weights included); Nautilus checkpoints pruned plan graphs with
	// trainable weights only.
	snaps := snapshots(t, 1)
	written := map[Approach]int64{}
	for _, approach := range []Approach{CurrentPractice, Nautilus} {
		ms := newMS(t, approach)
		if _, err := ms.Fit(snaps[0]); err != nil {
			t.Fatal(err)
		}
		written[approach] = ms.Metrics().Disk.BytesWritten()
	}
	// Nautilus also writes materialized features once, but its checkpoint
	// savings dominate across even a single cycle at these sizes.
	if written[Nautilus] >= written[CurrentPractice] {
		t.Errorf("nautilus wrote %d bytes, current practice %d", written[Nautilus], written[CurrentPractice])
	}
}

// A session whose store was closed must fail its next Fit with
// storage.ErrClosed instead of silently reopening artifact files: ms.store
// is a field, the shape no function-local lifecycle check can follow.
func TestFitAfterCloseReportsClosedStore(t *testing.T) {
	ms := newMS(t, Nautilus)
	snaps := snapshots(t, 2)
	if _, err := ms.Fit(snaps[0]); err != nil {
		t.Fatal(err)
	}
	if len(ms.Planner().Plan().MatSigs) == 0 {
		t.Fatal("precondition: the nautilus plan materializes nothing, so Fit would not reach the store")
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ms.Fit(snaps[1]); !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("Fit after Close: err = %v, want storage.ErrClosed", err)
	}
	if err := ms.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestExponentialBackoffReOptimizes(t *testing.T) {
	items, mm := tinyWorkload(t)
	cfg := DefaultConfig(t.TempDir())
	cfg.HW = miniHW
	cfg.MaxRecords = 50 // force backoff after the first cycle
	ms, err := New(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	snaps := snapshots(t, 3)
	res1, err := ms.Fit(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res1.ReOptimized {
		t.Error("first cycle must optimize")
	}
	// Cycle 2: 80 records > 50 → r doubles to 100 → re-optimize.
	res2, err := ms.Fit(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if !res2.ReOptimized {
		t.Error("crossing r must trigger re-optimization")
	}
	// Cycle 3: 120 records > 100 → again.
	res3, err := ms.Fit(snaps[2])
	if err != nil {
		t.Fatal(err)
	}
	if !res3.ReOptimized {
		t.Error("second crossing must trigger re-optimization")
	}
}

func TestNoBackoffWhenRecordsCovered(t *testing.T) {
	ms := newMS(t, Nautilus) // MaxRecords 600 covers everything
	snaps := snapshots(t, 2)
	res, err := ms.Fit(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle != 1 || !res.ReOptimized || res.Duration <= 0 {
		t.Errorf("first cycle: Cycle=%d ReOptimized=%v Duration=%v, want 1, true, > 0", res.Cycle, res.ReOptimized, res.Duration)
	}
	res, err = ms.Fit(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle != 2 || res.ReOptimized || res.Duration <= 0 {
		t.Errorf("second cycle: Cycle=%d ReOptimized=%v Duration=%v, want 2, false, > 0", res.Cycle, res.ReOptimized, res.Duration)
	}
}

func TestInitStatsPopulated(t *testing.T) {
	ms := newMS(t, Nautilus)
	snaps := snapshots(t, 1)
	if _, err := ms.Fit(snaps[0]); err != nil {
		t.Fatal(err)
	}
	st := ms.InitStats()
	if st == nil || st.Groups == 0 {
		t.Fatal("init stats missing")
	}
	if st.Materialized == 0 {
		t.Error("expected materialization at mini hardware ratios")
	}
	if st.OptimizeTime <= 0 {
		t.Error("optimize time not measured")
	}
}

func TestEmptyCandidateSetRejected(t *testing.T) {
	if _, err := New(nil, nil, DefaultConfig(t.TempDir())); err == nil {
		t.Error("empty candidate set should error")
	}
}

// TestNewCheckpointDirErrorOpensNoStore: a WorkDir whose checkpoints path
// is a regular file fails New before the tensor store opens, so the
// error leaves no store behind.
func TestNewCheckpointDirErrorOpensNoStore(t *testing.T) {
	items, mm := tinyWorkload(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "checkpoints"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(dir)
	cfg.HW = miniHW
	if ms, err := New(items, mm, cfg); err == nil {
		ms.Close()
		t.Fatal("New succeeded with a regular file for its checkpoint directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "store")); !os.IsNotExist(err) {
		t.Errorf("New failed but left a store directory behind (stat: %v)", err)
	}
}

func TestUnknownApproachRejected(t *testing.T) {
	items, mm := tinyWorkload(t)
	cfg := DefaultConfig(t.TempDir())
	cfg.Approach = "bogus"
	cfg.HW = miniHW
	ms, err := New(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, err := ms.Fit(snapshots(t, 1)[0]); err == nil {
		t.Error("unknown approach should fail at Fit")
	}
}
