package layers

import (
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// benchStep times one training step of a single layer the way exec runs
// it — Forward(train) then Backward with every gradient, all tensors from
// a step Scope released at the end — and reports ns per activated element
// (elems = rows × the nonlinearity's width), the unit in which a GELU's
// 30–55 ns can be read against a matmul's ~0.07 ns per flop.
func benchStep(b *testing.B, l graph.Layer, elems int, shape ...int) {
	rng := rand.New(rand.NewSource(1))
	scope := tensor.NewArena().Scope()
	in := []*tensor.Tensor{tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, shape...))}
	g := tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, append([]int{shape[0]}, l.OutShape([][]int{shape[1:]})...)...))
	need := graph.BackwardNeed{Inputs: true, Params: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, cache := l.Forward(in, true)
		l.Backward(cache, in, out, g, need)
		scope.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

// BERT-mini training shapes: batch 32 × seq 12 = 384 rows of dim 32.

// BenchmarkDenseGeLUStep is the transformer FFN up-projection, 32→64 GELU.
func BenchmarkDenseGeLUStep(b *testing.B) {
	benchStep(b, NewDense(32, 64, ActGeLU, 1), 384*64, 32, 12, 32)
}

// BenchmarkAdapterStep is the ATR workload's Houlsby adapter, bottleneck 64.
func BenchmarkAdapterStep(b *testing.B) {
	benchStep(b, NewAdapter(32, 64, 1), 384*64, 32, 12, 32)
}
