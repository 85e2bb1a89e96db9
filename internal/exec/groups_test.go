package exec

import (
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// TestMain gives every test of the package at least two group slots, so
// the race detector sees concurrent groups on a one-CPU box too.
func TestMain(m *testing.M) {
	tensor.SetMaxWorkers(max(2, tensor.MaxWorkers()))
	os.Exit(m.Run())
}

// withSlots pins the worker cap — kernel workers and group slots — for one
// test, whatever the box's CPU count.
func withSlots(t *testing.T, n int) {
	t.Helper()
	prev := tensor.MaxWorkers()
	tensor.SetMaxWorkers(n)
	t.Cleanup(func() { tensor.SetMaxWorkers(prev) })
}

// singletons builds n singleton groups over a fresh workload.
func singletons(t *testing.T, n int) []*opt.FusedGroup {
	t.Helper()
	items, _ := buildWorkload(t, n)
	groups := make([]*opt.FusedGroup, n)
	for i, it := range items {
		groups[i] = singleton(t, it, nil)
	}
	return groups
}

// spanLog is an obs.Sink keeping finished spans (the tracer serializes Emit).
type spanLog struct{ events []obs.Event }

func (l *spanLog) Emit(e obs.Event) { l.events = append(l.events, e) }
func (l *spanLog) Close() error     { return nil }

// checkSlotTracks asserts every group's loop and prefetcher sit on one of
// the slots' track pairs, and that two groups on one track never overlap in
// time — what renders concurrent groups side by side in the Chrome trace.
func checkSlotTracks(t *testing.T, events []obs.Event, slots int) {
	t.Helper()
	byTrack := map[int][]obs.Event{}
	for _, e := range events {
		switch e.Name {
		case "train/group":
			if e.Track%slotTracks != 0 || e.Track/slotTracks >= slots {
				t.Errorf("slots=%d: train/group on track %d", slots, e.Track)
			}
			byTrack[e.Track] = append(byTrack[e.Track], e)
		case "train/feed_assemble":
			// The prefetcher's sit two above the loop; validation's are on it.
			if e.Track%slotTracks == 1 || e.Track/slotTracks >= slots {
				t.Errorf("slots=%d: train/feed_assemble on track %d", slots, e.Track)
			}
		}
	}
	if slots > 1 && len(byTrack) < 2 {
		t.Errorf("slots=%d: all groups drew on one track", slots)
	}
	for track, groups := range byTrack {
		for i, a := range groups {
			for _, b := range groups[i+1:] {
				if a.Start < b.Start+b.Dur && b.Start < a.Start+a.Dur {
					t.Errorf("slots=%d: two groups overlap on track %d", slots, track)
				}
			}
		}
	}
}

// TestTrainGroupsMatchesSequentialLoop is the scheduler's differential
// check at the exec layer: TrainGroups on one, two and four slots gives the
// bits, the Metrics counts and the conformance order of a plain
// one-at-a-time TrainGroup loop, each slot tracing on its own tracks.
func TestTrainGroupsMatchesSequentialLoop(t *testing.T) {
	snap := nerSnapshot(t, 2)
	store, _ := newTestStore(t)

	ref := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 3, Metrics: NewMetrics(), Arena: tensor.NewArena(), Prefetch: true}
	var want [][]BranchResult
	for _, g := range singletons(t, 4) {
		res, err := ref.TrainGroup(g, snap)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	for _, slots := range []int{1, 2, 4} {
		withSlots(t, slots)
		spans := &spanLog{}
		tr := obs.New(spans)
		trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 3, Metrics: NewMetrics(), Arena: tensor.NewArena(), Prefetch: true, Obs: tr}
		groups := singletons(t, 4)
		var checkpointed atomic.Int32
		got, err := trainer.TrainGroups(groups, snap, 1<<40, func(int, *opt.FusedGroup) error {
			checkpointed.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := checkpointed.Load(); n != 4 {
			t.Errorf("slots=%d: checkpoint ran %d times, want 4", slots, n)
		}
		for gi := range want {
			for bi, w := range want[gi] {
				g := got[gi][bi]
				if g.Item.Model.Name != w.Item.Model.Name ||
					math.Float64bits(g.ValAcc) != math.Float64bits(w.ValAcc) ||
					math.Float64bits(g.ValLoss) != math.Float64bits(w.ValLoss) ||
					math.Float64bits(g.FinalLoss) != math.Float64bits(w.FinalLoss) {
					t.Errorf("slots=%d group %d branch %d: got %+v, want %+v", slots, gi, bi, g, w)
				}
			}
		}
		m, r := trainer.Metrics, ref.Metrics
		if m.ComputeFLOPs != r.ComputeFLOPs || m.LoadBytes != r.LoadBytes || m.TrainSteps != r.TrainSteps {
			t.Errorf("slots=%d: metrics %+v, sequential loop %+v", slots, m, r)
		}
		if m.Wall <= 0 {
			t.Errorf("slots=%d: busy time not accounted", slots)
		}
		if v := tr.Registry().Gauge("trainer.groups_in_flight").Value(); v != int64(slots) {
			t.Errorf("slots=%d: at most %d groups in flight", slots, v)
		}
		checkSlotTracks(t, spans.events, slots)
		for i, rep := range tr.Conformance().Report() {
			if rep.Group != groups[i].Name() {
				t.Errorf("slots=%d: conformance row %d is %q, want plan order (%q)", slots, i, rep.Group, groups[i].Name())
			}
		}
	}
}

// TestTrainGroupsAdmissionHoldsMemBudget reads the in-flight high-water
// mark: with slots to spare, a B_mem that fits one group never has two in
// flight, and one that fits two never has three.
func TestTrainGroupsAdmissionHoldsMemBudget(t *testing.T) {
	withSlots(t, 4)
	snap := nerSnapshot(t, 1)
	store, _ := newTestStore(t)
	var largest, smallest int64
	for _, g := range singletons(t, 4) {
		largest = max(largest, g.PeakMemBytes)
		if smallest == 0 || g.PeakMemBytes < smallest {
			smallest = g.PeakMemBytes
		}
	}
	if 2*smallest <= largest || 3*smallest <= 2*largest {
		t.Fatalf("groups too uneven for the budgets below: %d..%d bytes", smallest, largest)
	}
	for _, tc := range []struct {
		budget int64
		want   int64
	}{{largest, 1}, {2 * largest, 2}, {0, 1}} {
		tr := obs.New(nil)
		trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 3, Obs: tr}
		if _, err := trainer.TrainGroups(singletons(t, 4), snap, tc.budget, nil); err != nil {
			t.Fatal(err)
		}
		if v := tr.Registry().Gauge("trainer.groups_in_flight").Value(); v != tc.want {
			t.Errorf("B_mem %d: %d groups in flight at once, want %d", tc.budget, v, tc.want)
		}
	}
}

// rowsFailLoss returns a mis-shaped gradient for mini-batches of the given
// row counts, so chosen groups (told apart by batch size) fail mid-epoch.
type rowsFailLoss struct {
	train.SoftmaxCrossEntropy
	rows map[int]bool
}

func (l rowsFailLoss) Compute(logits, labels *tensor.Tensor) (float64, *tensor.Tensor) {
	if l.rows[logits.Shape()[0]] {
		return 0.5, tensor.New(1)
	}
	return l.SoftmaxCrossEntropy.Compute(logits, labels)
}

// TestTrainGroupsErrorStopsAdmissionAndJoins fails the two groups that
// start first (the longest) on two slots: the error of the lower plan index
// comes back, the two shorter groups never start, every goroutine is joined,
// every step scope is back in the arena and every span is ended.
func TestTrainGroupsErrorStopsAdmissionAndJoins(t *testing.T) {
	withSlots(t, 2)
	items, _ := buildWorkload(t, 4)
	// 64 train records: batches of 8, 16 and 32 all divide them.
	snap := nerSnapshot(t, 2)
	if snap.TrainSize() != 64 {
		t.Fatalf("train size %d, want 64", snap.TrainSize())
	}
	items[1].BatchSize, items[1].Epochs = 32, 4
	items[2].BatchSize, items[2].Epochs = 16, 4
	groups := make([]*opt.FusedGroup, len(items))
	for i, it := range items {
		groups[i] = singleton(t, it, nil)
	}
	store, _ := newTestStore(t)
	arena := tensor.NewArena()
	baseline := runtime.NumGoroutine()

	trainer := &Trainer{Store: store, Loss: rowsFailLoss{rows: map[int]bool{16: true, 32: true}}, Seed: 5, Metrics: NewMetrics(), Arena: arena, Prefetch: true, Obs: obs.New(nil)}
	var checkpointed atomic.Int32
	res, err := trainer.TrainGroups(groups, snap, 1<<40, func(int, *opt.FusedGroup) error {
		checkpointed.Add(1)
		return nil
	})
	if res != nil || err == nil || !strings.Contains(err.Error(), "want logits shape [32 ") {
		t.Fatalf("want group 1's loss-gradient error and no results, got %v, %v", res, err)
	}
	// Groups 0 and 3 (batches of 8, two epochs) would have stepped.
	if trainer.Metrics.TrainSteps != 0 || checkpointed.Load() != 0 {
		t.Errorf("groups started after the failure: %d steps, %d checkpoints", trainer.Metrics.TrainSteps, checkpointed.Load())
	}
	for _, st := range trainer.Obs.Report().Spans {
		if st.Name == "train/group" && st.Count != 2 {
			t.Errorf("%d groups started, want 2", st.Count)
		}
	}

	// TrainGroups has joined its slots; each failed group's deferred drain
	// lets its prefetcher finish. Poll up to ~2s in bounded steps.
	for i := 0; i < 200 && runtime.NumGoroutine() > baseline; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("goroutines leaked: %d, baseline %d", g, baseline)
	}
	if st := arena.Stats(); st.Gets == 0 || st.Gets != st.Puts {
		t.Errorf("step scopes left unreleased: %+v", st)
	}
	requireNoOpenSpans(t, trainer.Obs)
}
