//go:build amd64

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestZeroFreeScan holds the dense kernel's scan to Go's x == 0 at every
// length from 0 to 40 (16-blocks, an 8-block and single elements in every
// mix), with a zero of either sign at every index: NaN, both infinities,
// the smallest subnormals of both signs, ±MaxFloat32 and ±2 (one bit below
// the sign) are not zero, and
// a zero just past the end is not read.
func TestZeroFreeScan(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: denseCoefs scans nothing")
	}
	nonzero := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x1), math.Float32frombits(0x80000001),
		math.MaxFloat32, -math.MaxFloat32, 2, -2, 1.5, -0.25,
	}
	for n := 0; n <= 40; n++ {
		buf := make([]float32, n+1) // buf[n] stays +0: past the end
		x := buf[:n]
		for i := range x {
			x[i] = nonzero[i%len(nonzero)]
		}
		if !denseCoefs(x) {
			t.Fatalf("n=%d: a zero-free operand reads as holding a zero", n)
		}
		for i := range x {
			for _, zero := range []float32{0, float32(math.Copysign(0, -1))} {
				keep := x[i]
				x[i] = zero
				if denseCoefs(x) {
					t.Fatalf("n=%d: zero (bits %08x) at index %d missed", n, math.Float32bits(zero), i)
				}
				x[i] = keep
			}
		}
	}
}

// TestTileKernelNaNPayloads: where two NaNs meet, x86 returns its first
// source's payload, so the operand order of each multiply and add shows in
// the bits. Coefficients (no zero), b and out hold NaNs of three payloads
// beside finite values and -Inf; both assembly bodies must leave the
// payloads a saxpyAsm per term leaves.
func TestTileKernelNaNPayloads(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: no assembly body")
	}
	const rows, kc, n = 7, 5, 29 // 4-row tile + 3 single rows; column blocks of 16, 8, 4 and 1
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
	for _, dense := range []bool{false, true} {
		got := out.Clone()
		tileKernel(got.Data(), n, rows, n, coef.Data(), kc, 1, b.Data(), kc, dense)
		assertBitsEqual(t, fmt.Sprintf("tileKernel dense=%v", dense), got, want)
	}
}

// TestPortableDispatchOnAMD64 reruns the kernel sweeps with hasAVX2 off,
// so every `if !hasAVX2` branch of this file's dispatchers runs the
// portable bodies on a host that has AVX2: the matmul family, the conv and
// pool kernels, the SIMD helpers and the attention kernels, all against
// their seed bodies, and denseCoefs choosing the dense body nowhere.
func TestPortableDispatchOnAMD64(t *testing.T) {
	prev := hasAVX2
	hasAVX2 = false
	t.Cleanup(func() { hasAVX2 = prev })
	if denseCoefs([]float32{1, 2, 3}) {
		t.Fatal("denseCoefs chose the dense body without AVX2")
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
		{"AttentionMatchesPerHeadChain", TestAttentionMatchesPerHeadChain},
	} {
		t.Run(tc.name, tc.test)
	}
}
