package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatMul(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, m, k)
	y := RandNormal(rng, 1, k, n)
	b.SetBytes(int64(m*k+k*n+m*n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64, 64, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256, 256, 256) }

func BenchmarkMatMulBT256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 256, 256)
	y := RandNormal(rng, 1, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulBT(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 8, 32, 32, 16)
	g := ConvGeom{InH: 32, InW: 32, InC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(x, g)
	}
}

// BenchmarkSoftmaxRows times SoftmaxRows at 512×128 (rows too wide for
// the slab kernel: the ymm exp row) and at 384×12, an attention layer's
// scores at BERT-mini's batch and sequence length (the slab kernel where
// the zmm verdict holds).
func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][2]int{{512, 128}, {384, 12}} {
		x := RandNormal(rng, 1, sh[0], sh[1])
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SoftmaxRows(x)
			}
		})
	}
}

// BenchmarkLayerNormRows times LayerNorm's rows at BERT-mini's shape, 384
// rows of 32: a train forward (xhat and invStd kept), an eval forward, and
// the backward with dγ/dβ.
func BenchmarkLayerNormRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const rows, d = 384, 32
	x, g := RandNormal(rng, 1, rows, d).Data(), RandNormal(rng, 1, rows, d).Data()
	gamma, beta := RandNormal(rng, 1, d).Data(), RandNormal(rng, 1, d).Data()
	out, xhat, inv := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows)
	dx, dg, db := make([]float32, rows*d), make([]float32, d), make([]float32, d)
	b.Run("train", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LayerNormRows(out, xhat, inv, x, gamma, beta, 1e-5)
		}
	})
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LayerNormRows(out, nil, nil, x, gamma, beta, 1e-5)
		}
	})
	b.Run("backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LayerNormGradRows(dx, dg, db, g, xhat, inv, gamma)
		}
	})
}

// BenchmarkScopeGet times one warm step-scope allocation at an attention
// head's shape — the NewFrom(x, seq, dh) every kernel output goes through —
// with a Recycle every 64 Gets, as a training step recycles its scope:
// ns/op is the allocator's per-tensor cost, allocs/op must read 0.
func BenchmarkScopeGet(b *testing.B) {
	s := NewArena().Scope()
	defer s.Release()
	seq, dh := 16, 32
	src := s.Get(seq, dh)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%64 == 63 {
			s.Recycle()
			src = s.Get(seq, dh)
		}
		NewFrom(src, seq, dh)
	}
}

// BenchmarkEltwiseAdd256 times tensor.Add on 256x256 operands (65 536
// elements, exactly parallelThreshold) serially and fanned out over the
// ambient worker cap: the number behind the parallelThreshold / SerialBelow
// decision for elementwise kernels.
func BenchmarkEltwiseAdd256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 256, 256)
	y := RandNormal(rng, 1, 256, 256)
	prev := int(workerCap.Load())
	b.Cleanup(func() { SetMaxWorkers(prev) })
	for _, tc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=MaxWorkers", MaxWorkers()}} {
		b.Run(tc.name, func(b *testing.B) {
			SetMaxWorkers(tc.workers)
			b.SetBytes(3 * 256 * 256 * 4)
			for i := 0; i < b.N; i++ {
				Add(x, y)
			}
		})
	}
}

// BenchmarkMatMulConvShapes times the matmul family where the conv
// workloads spend it: im2col-shaped operands (many rows, 8-16 output
// channels) whose coefficient operand is half exact zeros, as a post-ReLU
// cols matrix or a ReLU-masked dz is, beside two dense shapes (the bench/
// probe's 384x32x64 and 256^3). Shapes are m x k x n of the product. Every
// b operand here is finite, so all rows run the dense tile body: the
// half0 rows measure it over zero coefficients, which it multiplies
// rather than skips.
func BenchmarkMatMulConvShapes(b *testing.B) {
	for _, tc := range []struct {
		m, k, n int
		sparse  bool
	}{
		{4096, 72, 8, true}, {4096, 32, 8, true}, {1024, 144, 16, true}, {1024, 64, 16, true},
		{384, 32, 64, false}, {256, 256, 256, false},
	} {
		rng := rand.New(rand.NewSource(1))
		coef := func(shape ...int) *Tensor { // the operand whose zeros the family skips
			t := RandNormal(rng, 1, shape...)
			for i := range t.Data() {
				if tc.sparse && rng.Intn(2) == 0 {
					t.Data()[i] = 0
				}
			}
			return t
		}
		ops := []struct {
			name string
			a, b *Tensor
			f    func(a, b *Tensor) *Tensor
		}{
			{"MatMul", coef(tc.m, tc.k), RandNormal(rng, 1, tc.k, tc.n), MatMul},
			{"MatMulBT", coef(tc.m, tc.k), RandNormal(rng, 1, tc.n, tc.k), MatMulBT},
			{"MatMulAT", coef(tc.k, tc.m), RandNormal(rng, 1, tc.k, tc.n), MatMulAT},
		}
		density := "dense"
		if tc.sparse {
			density = "half0"
		}
		for _, op := range ops {
			b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", op.name, tc.m, tc.k, tc.n, density), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.f(op.a, op.b)
				}
				b.ReportMetric(2*float64(tc.m)*float64(tc.k)*float64(tc.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}
