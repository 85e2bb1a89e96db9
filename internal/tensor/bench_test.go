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

func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 1, 512, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxRows(x)
	}
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
// probe's 384x32x64 and 256^3). Shapes are m x k x n of the product.
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
