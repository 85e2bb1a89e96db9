package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// badGradLoss returns a gradient of the wrong shape, exercising the
// trainer's mid-epoch error path (the one that stranded the prefetch
// goroutine before the pipeline drain was deferred).
type badGradLoss struct{ train.SoftmaxCrossEntropy }

func (badGradLoss) Compute(logits, labels *tensor.Tensor) (float64, *tensor.Tensor) {
	return 0.5, tensor.New(1)
}

// TestTrainGroupBadLossGradientReleasesPipeline asserts an error return
// from the middle of an epoch neither strands the prefetch goroutine
// blocked on send nor leaks the in-flight batch scopes or open spans.
func TestTrainGroupBadLossGradientReleasesPipeline(t *testing.T) {
	items, _ := buildWorkload(t, 1)
	snap := nerSnapshot(t, 2)
	store, _ := newTestStore(t)
	arena := tensor.NewArena()
	baseline := runtime.NumGoroutine()

	trainer := &Trainer{Store: store, Loss: badGradLoss{}, Seed: 5, Arena: arena, Prefetch: true, Obs: obs.New(nil)}
	_, err := trainer.TrainGroup(singleton(t, items[0], nil), snap)
	if err == nil || !strings.Contains(err.Error(), "loss gradient") {
		t.Fatalf("want loss-gradient shape error, got %v", err)
	}

	// The deferred drain lets the prefetch goroutine run to completion.
	requireNoGoroutineLeak(t, baseline, "prefetch")
	requireNoOpenSpans(t, trainer.Obs)

	// Both the failed batch's scope and the drained prefetched scopes went
	// back to the pool.
	if st := arena.Stats(); st.Gets == 0 || st.Puts == 0 {
		t.Errorf("error path did not recycle scopes: %+v", st)
	}
}

// requireNoGoroutineLeak polls up to ~2s in bounded steps for the
// goroutine count to fall back to baseline: a pipeline producer stranded on
// send by an undrained channel never gets there.
func requireNoGoroutineLeak(t *testing.T, baseline int, what string) {
	t.Helper()
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("%s goroutine leaked: %d goroutines, baseline %d", what, g, baseline)
	}
}

// requireNoOpenSpans polls up to ~2s in bounded steps for every span of tr
// to end: a prefetcher's train/feed_assemble span may outlive the batch
// that failed, but a span an error return forgot never ends.
func requireNoOpenSpans(t *testing.T, tr *obs.Tracer) {
	t.Helper()
	open := tr.Report().OpenSpans
	for i := 0; i < 200 && len(open) > 0; i++ {
		time.Sleep(10 * time.Millisecond)
		open = tr.Report().OpenSpans
	}
	for _, sp := range open {
		t.Errorf("span %s (id %d) still open after the error return", sp.Name, sp.ID)
	}
}

// TestTrainGroupValidationFeedErrorEndsSpans materializes the chosen
// features for the train split only, so training reads them from the store
// and validation's read fails: the error must come back and every span the
// group opened, validation's included, must be ended.
func TestTrainGroupValidationFeedErrorEndsSpans(t *testing.T) {
	items, mm := buildWorkload(t, 1)
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

	trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 5, Arena: tensor.NewArena(), Prefetch: true, Obs: obs.New(nil)}
	_, err = trainer.TrainGroup(singleton(t, items[0], res.Sigs), snap)
	if err == nil || !strings.Contains(err.Error(), "read materialized") {
		t.Fatalf("want validation's store read to fail, got %v", err)
	}
	requireNoOpenSpans(t, trainer.Obs)
}

// TestMaterializerErrorReleasesChunkScopes asserts a failure inside the
// materializer pipeline — an append while the producer still has chunks to
// send — neither strands the chunk producer nor leaks the errored chunk's
// scope or an open span.
func TestMaterializerErrorReleasesChunkScopes(t *testing.T) {
	items, mm := buildWorkload(t, 2)
	res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Materialized) == 0 {
		t.Fatal("expected materialization at mini hardware ratios")
	}
	snap := nerSnapshot(t, 2)
	syncFails := func(want string, poison func(mz *Materializer, store *storage.TensorStore)) {
		t.Helper()
		store, _ := newTestStore(t)
		mz, err := NewMaterializer(store, mm, res.Sigs)
		if err != nil {
			t.Fatal(err)
		}
		arena := tensor.NewArena()
		mz.Arena = arena
		mz.ChunkSize = 8
		mz.Obs = obs.New(nil)
		poison(mz, store)
		baseline := runtime.NumGoroutine()
		err = mz.SyncSplit(Train, snap.TrainX)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an error containing %q, got %v", want, err)
		}
		requireNoGoroutineLeak(t, baseline, "chunk producer")
		requireNoOpenSpans(t, mz.Obs)
		if st := arena.Stats(); st.Puts == 0 {
			t.Errorf("errored chunk's scope was not released: %+v", st)
		}
	}
	// A one-wide record under the first output's key makes the first
	// chunk's append fail; only the deferred drain unblocks the producer.
	syncFails("holds records of shape", func(mz *Materializer, store *storage.TensorStore) {
		if err := store.Append(storeKey(mz.outputs[mz.outputNodes()[0]], Train), tensor.New(1, 1)); err != nil {
			t.Fatal(err)
		}
	})
}
