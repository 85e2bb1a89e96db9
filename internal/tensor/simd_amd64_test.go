//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestFiniteScan holds the dense kernel's scan to "no ±Inf, no NaN" at
// every length from 0 to 40 (16-blocks, an 8-block and single elements in
// every mix): zeros of both signs, the smallest subnormals of both signs,
// ±MaxFloat32 and ±1.5 are finite, and +Inf, -Inf and NaNs of four
// payloads (quiet and signalling bit patterns, both signs) planted at every
// index are not; a non-finite element just past the end is not read.
func TestFiniteScan(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: denseB scans nothing")
	}
	bits := math.Float32frombits
	finite := []float32{
		0, float32(math.Copysign(0, -1)), bits(0x1), bits(0x80000001), bits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, 1.5, -1.5, math.SmallestNonzeroFloat32,
	}
	nonfinite := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)),
		bits(0x7fc00000), bits(0xffc0000a), bits(0x7f800001), bits(0xffbfffff),
	}
	for n := 0; n <= 40; n++ {
		buf := make([]float32, n+1)
		buf[n] = float32(math.NaN()) // past the end
		x := buf[:n]
		for i := range x {
			x[i] = finite[i%len(finite)]
		}
		if !denseB(x) {
			t.Fatalf("n=%d: a finite operand reads as holding a non-finite element", n)
		}
		for i := range x {
			keep := x[i]
			for _, v := range nonfinite {
				x[i] = v
				if denseB(x) {
					t.Fatalf("n=%d: bits %08x at index %d missed", n, math.Float32bits(v), i)
				}
			}
			x[i] = keep
		}
	}
}

// TestTileKernelNaNPayloads: where two NaNs meet, x86 returns its first
// source's payload, so the operand order of each multiply and add shows in
// the bits. Coefficients (no zero), b and out hold NaNs of three payloads
// beside finite values and -Inf; the assembly body must leave the payloads
// a saxpyAsm per term leaves, in every column block: n = 29 is 16, 8, 4
// and 1, n = 61 adds a zmm 32-block with AVX-512F.
func TestTileKernelNaNPayloads(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: no assembly body")
	}
	for _, n := range []int{29, 61} {
		checkTileNaNPayloads(t, n)
	}
}

func checkTileNaNPayloads(t *testing.T, n int) {
	t.Helper()
	const rows, kc = 7, 5 // 4-row tile + 3 single rows
	payload := math.Float32frombits
	out, b, coef := New(rows, n), New(kc, n), New(rows, kc)
	for i := range out.Data() {
		out.Data()[i] = []float32{payload(0x7fc0000a), 1}[i%2]
	}
	for i := range b.Data() {
		b.Data()[i] = []float32{payload(0x7fc0000b), 2, float32(math.Inf(-1))}[i%3]
	}
	for i := range coef.Data() {
		coef.Data()[i] = []float32{payload(0xffc0000c), 3}[(i/2)%2]
	}
	want := out.Clone()
	for r := 0; r < rows; r++ {
		for p := 0; p < kc; p++ {
			saxpy(want.Row(r), b.Row(p), coef.Data()[r*kc+p])
		}
	}
	got := out.Clone()
	tileKernel(got.Data(), n, rows, n, coef.Data(), kc, 1, b.Data(), kc, true)
	assertBitsEqual(t, fmt.Sprintf("tileKernel dense n=%d", n), got, want)
}

// TestPortableDispatchOnAMD64 reruns the kernel sweeps with hasAVX2 off
// (and with it hasAVX512 and both vector-math verdicts), so every
// dispatcher runs its portable body on a host that has the instructions:
// the matmul family, the conv and pool kernels, the SIMD helpers (BiasRows
// against AddRowVec, NaN payloads meeting, included), the attention
// kernels, LayerNorm's rows and the softmax rows, all against their seed
// bodies, the portable bodies' refusal of a short operand, and denseB
// choosing the dense body nowhere.
func TestPortableDispatchOnAMD64(t *testing.T) {
	prev, prev512, prevY, prevZ := hasAVX2, hasAVX512, useVecMath, useVecMath512
	hasAVX2, hasAVX512, useVecMath, useVecMath512 = false, false, false, false
	t.Cleanup(func() { hasAVX2, hasAVX512, useVecMath, useVecMath512 = prev, prev512, prevY, prevZ })
	if denseB([]float32{1, 2, 3}) {
		t.Fatal("denseB chose the dense body without AVX2")
	}
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MatMulFamilyBitIdentity", TestMatMulFamilyBitIdentity},
		{"MatMulATTileEdges", TestMatMulATTileEdges},
		{"MatMulFamilyLoneZero", TestMatMulFamilyLoneZero},
		{"ConvFamilyBitIdentity", TestConvFamilyBitIdentity},
		{"SIMDHelpersMatchScalar", TestSIMDHelpersMatchScalar},
		{"SIMDHelpersRejectShortOperands", TestSIMDHelpersRejectShortOperands},
		{"AttentionMatchesPerHeadChain", TestAttentionMatchesPerHeadChain},
		{"LayerNormForwardMatchesScalar", TestLayerNormForwardMatchesScalar},
		{"LayerNormGradMatchesScalar", TestLayerNormGradMatchesScalar},
		{"SoftmaxRowsMatchesScalar", TestSoftmaxRowsMatchesScalar},
	} {
		t.Run(tc.name, tc.test)
	}
}

// TestAVX2DispatchOnAVX512 reruns the kernel suites with hasAVX512 and the
// zmm verdict off, so the bodies the zmm ones stand in front of — the tile
// kernel's 16-column blocks after one another, the GELU row, and the
// scalar LayerNorm and softmax rows an AVX2-only host runs — keep a test on a host that has AVX-512F: the matmul family (tile
// edges and lone zeros included), the conv family, the SIMD helpers with
// the tile kernel's NaN payloads, the attention kernels, the row kernels,
// and the transcendental identity tests.
func TestAVX2DispatchOnAVX512(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512F: the suites already run the AVX2 bodies")
	}
	prev, prevVerdict := hasAVX512, useVecMath512
	hasAVX512, useVecMath512 = false, false
	t.Cleanup(func() { hasAVX512, useVecMath512 = prev, prevVerdict })
	for _, tc := range []struct {
		name string
		test func(*testing.T)
	}{
		{"MatMulFamilyBitIdentity", TestMatMulFamilyBitIdentity},
		{"MatMulATTileEdges", TestMatMulATTileEdges},
		{"MatMulFamilyLoneZero", TestMatMulFamilyLoneZero},
		{"TileKernelNaNPayloads", TestTileKernelNaNPayloads},
		{"ConvFamilyBitIdentity", TestConvFamilyBitIdentity},
		{"SIMDHelpersMatchScalar", TestSIMDHelpersMatchScalar},
		{"AttentionMatchesPerHeadChain", TestAttentionMatchesPerHeadChain},
		{"VectorTranscendentalsBitIdentity", TestVectorTranscendentalsBitIdentity},
		{"LayerNormForwardMatchesScalar", TestLayerNormForwardMatchesScalar},
		{"LayerNormGradMatchesScalar", TestLayerNormGradMatchesScalar},
		{"SoftmaxRowsMatchesScalar", TestSoftmaxRowsMatchesScalar},
	} {
		t.Run(tc.name, tc.test)
	}
}
