package graph_test

import (
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/models"
	"nautilus/internal/tensor"
)

// BenchmarkMiniBERTForwardBackward measures one training step's engine
// cost on the mini BERT feature-transfer model (batch 8), as the trainer
// runs it: the model compiled once, each step in one recycled step scope.
// allocs/op is the step's heap objects.
func BenchmarkMiniBERTForwardBackward(b *testing.B) {
	hub := models.NewBERTHub(models.BERTMini())
	m, err := hub.FeatureTransferModel("bench", models.FeatLastHidden, 9, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids := tensor.New(8, hub.Cfg.Seq)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(hub.Cfg.Vocab))
	}
	grads := []*tensor.Tensor{tensor.RandNormal(rng, 0.1, 8, hub.Cfg.Seq, 9)}
	prog := graph.Compile(m)
	feeds := []*tensor.Tensor{ids}
	scope := tensor.NewArena().Scope()
	defer scope.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape := prog.Run(feeds, graph.ForwardOptions{Train: true, Alloc: scope})
		if err := tape.BackwardOutputs(grads); err != nil {
			b.Fatal(err)
		}
		scope.Recycle()
	}
}

// BenchmarkMiniBERTForwardOnly isolates the inference path.
func BenchmarkMiniBERTForwardOnly(b *testing.B) {
	hub := models.NewBERTHub(models.BERTMini())
	m, err := hub.FeatureTransferModel("bench", models.FeatLastHidden, 9, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ids := tensor.New(8, hub.Cfg.Seq)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(hub.Cfg.Vocab))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Forward(map[string]*tensor.Tensor{"ids": ids}, false); err != nil {
			b.Fatal(err)
		}
	}
}
