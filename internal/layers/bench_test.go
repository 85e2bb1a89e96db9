package layers

import (
	"fmt"
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
func benchStep(b *testing.B, l graph.Kernel, elems int, shape ...int) {
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

// BenchmarkAttentionStep is one BERT-mini self-attention layer's training
// step — forward(train), then backward with every gradient — in a step
// scope recycled after each step, as exec runs it: batch 32, seq 12, dim 32,
// two heads of 16.
func BenchmarkAttentionStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	l := NewMultiHeadAttention(32, 2, 1)
	x, g := tensor.RandNormal(rng, 1, 32, 12, 32), tensor.RandNormal(rng, 1, 32, 12, 32)
	scope := tensor.NewArena().Scope()
	defer scope.Release()
	need := graph.BackwardNeed{Inputs: true, Params: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := []*tensor.Tensor{tensor.WithAlloc(scope, x)}
		out, cache := l.Forward(in, true)
		l.Backward(cache, in, out, tensor.WithAlloc(scope, g), need)
		scope.Recycle()
	}
}

// BenchmarkResidualBlockStep is one training step of ResNet-mini's block 1
// (16×16, 8 → 8 → 32 channels, stride 1: conv1, conv3 and the projection
// shortcut are pointwise) and block 3 (16×16, 32 → 16 → 64, stride 2: the
// shortcut keeps the lowering), at batch 32: ns/op and allocs/op. The
// block runs as the trainer runs it, spliced into a compiled model behind a
// trainable ChannelAffine, so it takes input and parameter gradients:
// Program.Run in train mode, BackwardOutputs, then the step scope recycled.
func BenchmarkResidualBlockStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  ResidualBlockConfig
	}{
		{"block1", ResidualBlockConfig{InH: 16, InW: 16, InC: 8, MidC: 8, OutC: 32, Stride: 1, Seed: 1}},
		{"block3", ResidualBlockConfig{InH: 16, InW: 16, InC: 32, MidC: 16, OutC: 64, Stride: 2, Seed: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			l := compile(NewResidualBlock(bc.cfg), NewChannelAffine(bc.cfg.InC, 2))
			x := tensor.RandNormal(rng, 1, 32, bc.cfg.InH, bc.cfg.InW, bc.cfg.InC)
			g := []*tensor.Tensor{tensor.RandNormal(rng, 1, append([]int{32}, l.OutShape([][]int{x.Shape()[1:]})...)...)}
			scope := tensor.NewArena().Scope()
			defer scope.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tape := l.prog.Run([]*tensor.Tensor{x}, graph.ForwardOptions{Train: true, Alloc: scope})
				if err := tape.BackwardOutputs(g); err != nil {
					b.Fatal(err)
				}
				scope.Recycle()
			}
		})
	}
}

// benchActSweep times the train-mode epilogue alone — bias add, gelu, gelu′
// into the matmul buffer — in ns per element.
func benchActSweep(b *testing.B, row func(out, keep, src, bias []float32), rows, c int) {
	rng := rand.New(rand.NewSource(1))
	z, out := tensor.RandNormal(rng, 1, rows, c), tensor.New(rows, c)
	bias, keep := tensor.RandNormal(rng, 1, c).Data(), make([]float32, rows*c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if row == nil {
			actSweep(ActGeLU, z, bias, out, keep)
			continue
		}
		for r := 0; r < rows; r++ {
			row(out.Row(r), keep[r*c:(r+1)*c], z.Row(r), bias)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows*c), "ns/elem")
}

// BenchmarkActSweepGELU is actSweep as the layers call it, at a BERT-base
// FFN shape and at BERT-mini's.
func BenchmarkActSweepGELU(b *testing.B) {
	b.Run("128x3072", func(b *testing.B) { benchActSweep(b, nil, 128, 3072) })
	b.Run("32x64", func(b *testing.B) { benchActSweep(b, nil, 32, 64) })
}

// BenchmarkGeluRowScalar is the same rows through the scalar definition,
// serially: what every element cost before the row kernels, and still does
// off amd64 or without FMA.
func BenchmarkGeluRowScalar(b *testing.B) {
	scalar := func(out, keep, src, bias []float32) {
		tensor.RowYD(scalarYD(ActGeLU), out, keep, src, bias)
	}
	b.Run("128x3072", func(b *testing.B) { benchActSweep(b, scalar, 128, 3072) })
	b.Run("32x64", func(b *testing.B) { benchActSweep(b, scalar, 32, 64) })
}

// BenchmarkChannelAffine times ChannelAffine's forward and its backward
// (dx, dγ and dβ) at ResNet-mini's shapes — batch 32, 8 and 32 channels at
// 16×16, 16 and 64 at 8×8 — in a step scope recycled after each call, in
// ns per element.
func BenchmarkChannelAffine(b *testing.B) {
	for _, sh := range []struct{ c, hw int }{{8, 16}, {16, 8}, {32, 16}, {64, 8}} {
		rng := rand.New(rand.NewSource(1))
		l := NewChannelAffine(sh.c, 1)
		x, g := tensor.RandNormal(rng, 1, 32, sh.hw, sh.hw, sh.c), tensor.RandNormal(rng, 1, 32, sh.hw, sh.hw, sh.c)
		need := graph.BackwardNeed{Inputs: true, Params: true}
		for _, pass := range []string{"fwd", "bwd"} {
			b.Run(fmt.Sprintf("c%d/%dx%d/%s", sh.c, sh.hw, sh.hw, pass), func(b *testing.B) {
				scope := tensor.NewArena().Scope()
				defer scope.Release()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					in := []*tensor.Tensor{tensor.WithAlloc(scope, x)}
					if pass == "fwd" {
						l.Forward(in, true)
					} else {
						l.Backward(nil, in, nil, tensor.WithAlloc(scope, g), need)
					}
					scope.Recycle()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(x.Len()), "ns/elem")
			})
		}
	}
}
