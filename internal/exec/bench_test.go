package exec

import (
	"io"
	"testing"

	"nautilus/internal/obs"
	"nautilus/internal/train"
)

// benchTrainGroup runs one full TrainGroup pass per iteration with the
// given tracer attached, so the nil-sink and active-sink variants measure
// the instrumentation overhead on the real trainer hot loop. The ISSUE
// acceptance bar is < 2% overhead for the nil tracer.
func benchTrainGroup(b *testing.B, tr *obs.Tracer) {
	items, _ := buildWorkload(b, 1)
	snap := nerSnapshot(b, 2)
	store, _ := newTestStore(b)
	g := singleton(b, items[0], nil)
	trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 1, Obs: tr}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.TrainGroup(g, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainGroupNoObs(b *testing.B) {
	benchTrainGroup(b, nil)
}

func BenchmarkTrainGroupActiveObs(b *testing.B) {
	benchTrainGroup(b, obs.New(obs.NewChromeTraceSink(io.Discard)))
}
