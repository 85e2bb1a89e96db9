package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nautilus/internal/opt"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// badGradLoss returns a gradient of the wrong shape, exercising the
// trainer's mid-epoch error path (the one the goroutinejoin analyzer
// flagged before the pipeline drain was added).
type badGradLoss struct{ train.SoftmaxCrossEntropy }

func (badGradLoss) Compute(logits, labels *tensor.Tensor) (float64, *tensor.Tensor) {
	return 0.5, tensor.New(1)
}

// TestTrainGroupBadLossGradientReleasesPipeline asserts an error return
// from the middle of an epoch neither strands the prefetch goroutine
// blocked on send nor leaks the in-flight batch scopes.
func TestTrainGroupBadLossGradientReleasesPipeline(t *testing.T) {
	items, _ := buildWorkload(t, 1)
	snap := nerSnapshot(t, 2)
	store, _ := newTestStore(t)
	arena := tensor.NewArena()
	baseline := runtime.NumGoroutine()

	trainer := &Trainer{Store: store, Loss: badGradLoss{}, Seed: 5, Arena: arena, Prefetch: true}
	_, err := trainer.TrainGroup(singleton(t, items[0], nil), snap)
	if err == nil || !strings.Contains(err.Error(), "loss gradient") {
		t.Fatalf("want loss-gradient shape error, got %v", err)
	}

	// The deferred drain lets the prefetch goroutine run to completion;
	// poll up to ~2s in bounded steps.
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("prefetch goroutine leaked: %d goroutines, baseline %d", g, baseline)
	}

	// Both the failed batch's scope and the drained prefetched scopes went
	// back to the pool.
	if st := arena.Stats(); st.Gets == 0 || st.Puts == 0 {
		t.Errorf("error path did not recycle scopes: %+v", st)
	}
}

// TestMaterializerErrorReleasesChunkScopes asserts a forward failure inside
// the materializer pipeline still recycles the errored chunk's scope (the
// path the arenaescape/goroutinejoin sweep tightened).
func TestMaterializerErrorReleasesChunkScopes(t *testing.T) {
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
	arena := tensor.NewArena()
	mz.Arena = arena
	mz.ChunkSize = 8
	mz.inputName = "no_such_input" // forces ForwardOpts to fail on the first chunk

	snap := nerSnapshot(t, 2)
	err = mz.SyncSplit(Train, snap.TrainX)
	if err == nil || !strings.Contains(err.Error(), "no feed for input") {
		t.Fatalf("want missing-feed forward error, got %v", err)
	}
	if st := arena.Stats(); st.Puts == 0 {
		t.Errorf("errored chunk's scope was not released: %+v", st)
	}
}
