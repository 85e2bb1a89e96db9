//go:build amd64

package tensor

// AVX2 and AVX-512F dispatch for the SIMD micro-kernels. Detection runs
// once at init via raw CPUID/XGETBV (no external dependencies): the OS must
// have enabled XSAVE state for the YMM (and, for the zmm bodies, the ZMM
// and opmask) registers and the CPU must advertise AVX2 (AVX-512F).
// Everything falls back to the portable scalar bodies otherwise, so results
// are identical either way — the assembly preserves scalar operation order
// per output element, at every vector width.

//go:noescape
func saxpyAsm(dst, x *float32, n int, a float32)

//go:noescape
func vaddAsm(dst, x *float32, n int)

//go:noescape
func tileKernelDenseAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)

//go:noescape
func finiteAsm(x *float32, n int) bool

//go:noescape
func channelAffineAsm(dst, x, gamma, beta *float32, rows, c int)

//go:noescape
func channelScaleAsm(dst, grad, gamma *float32, rows, c int)

//go:noescape
func channelGradAsm(dgamma, dbeta, grad, x *float32, rows, c int)

//go:noescape
func biasRowsAsm(dst, src, bias *float32, rows, c int)

//go:noescape
func reluClampAsm(dst, src *float32, n int)

//go:noescape
func reluMaskAsm(dst, grad, out *float32, n int)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVX2 gates the assembly paths; resolved once at package init.
var hasAVX2 = detectAVX2()

// hasAVX512 gates the zmm bodies beside the ymm ones: the tile kernel's
// 32-column block and the GELU row. Resolved once at package init; tests
// turn it off to run the AVX2 bodies on this host.
var hasAVX512 = hasAVX2 && detectAVX512()

// detectAVX2 reports whether both the CPU and the OS support AVX2:
// CPUID.1:ECX must show OSXSAVE+AVX, XCR0 must have the SSE and AVX state
// bits enabled by the OS, and CPUID.7.0:EBX must advertise AVX2.
func detectAVX2() bool {
	maxID, _, _, _ := cpuidAsm(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbvAsm(); xlo&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<5) != 0
}

// detectAVX512 reports whether, on top of AVX2, the CPU advertises
// AVX-512F (CPUID.7.0:EBX bit 16) and the OS saves the opmask registers and
// both upper zmm state components (XCR0 bits 5-7) besides SSE and AVX.
func detectAVX512() bool {
	if xlo, _ := xgetbvAsm(); xlo&0xE6 != 0xE6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	return ebx7&(1<<16) != 0
}

// The wrappers re-slice every operand to the length the assembly will
// touch before taking its address, so a short operand panics here exactly
// as it does in the portable body instead of reading or writing out of
// bounds.

// saxpy computes dst[i] += a*x[i] for i in [0, len(dst)), in ascending
// order with one multiply then one add per element (never FMA).
func saxpy(dst, x []float32, a float32) {
	if !hasAVX2 {
		saxpyGeneric(dst, x, a)
		return
	}
	x = x[:len(dst)]
	if len(dst) > 0 {
		saxpyAsm(&dst[0], &x[0], len(dst), a)
	}
}

// vadd computes dst[i] += x[i] for i in [0, len(dst)). dst may alias x:
// each element is read before it is written.
func vadd(dst, x []float32) {
	if !hasAVX2 {
		vaddGeneric(dst, x)
		return
	}
	x = x[:len(dst)]
	if len(dst) > 0 {
		vaddAsm(&dst[0], &x[0], len(dst))
	}
}

// tileKernel is tileKernelGeneric through the register-tile assembly: four
// rows per call, and each leftover row as a tile of row stride 0 (its four
// lanes compute and store the same row). The assembly has no exact-zero
// skip, so it runs only where dense is true: the caller passes denseB of
// the b operand, and out must hold no -0 (every caller accumulates into
// outputs that start at +0). Otherwise the portable body runs.
func tileKernel(out []float32, os, rows, n int, a []float32, si, sp int, b []float32, kc int, dense bool) {
	if !hasAVX2 || !dense {
		tileKernelGeneric(out, os, rows, n, a, si, sp, b, kc)
		return
	}
	if rows <= 0 || n <= 0 || kc <= 0 { // also: the assembly's loops count down to zero
		return
	}
	// The last element of each operand the kernel reaches.
	_, _, _ = out[(rows-1)*os+n-1], a[(rows-1)*si+(kc-1)*sp], b[kc*n-1]
	r := 0
	for ; r+4 <= rows; r += 4 {
		tileKernelDenseAsm(&out[r*os], os, &a[r*si], si, sp, &b[0], n, kc)
	}
	for ; r < rows; r++ {
		tileKernelDenseAsm(&out[r*os], 0, &a[r*si], 0, sp, &b[0], n, kc)
	}
}

// denseB reports whether the tile kernel may run its assembly body with b
// as its b operand: AVX2 is present and every element of b is finite (no
// ±Inf, no NaN). Then a zero coefficient's product 0·b is ±0, which leaves
// an accumulator that is never -0 bit for bit as the skip would. One
// vector scan, stopped at the first non-finite element; without AVX2 there
// is one body and nothing to scan.
func denseB(b []float32) bool {
	if !hasAVX2 {
		return false
	}
	return len(b) == 0 || finiteAsm(&b[0], len(b))
}

// ChannelAffineRows writes dst[r*c+j] = x[r*c+j]*gamma[j] + beta[j] for
// every row r of dst, c = len(gamma): one multiply then one add per
// element, never FMA. len(dst) must be a multiple of c; dst may alias x.
func ChannelAffineRows(dst, x, gamma, beta []float32) {
	rows, c := channelRows(dst, gamma)
	if !hasAVX2 {
		channelAffineGeneric(dst, x, gamma, beta)
		return
	}
	x, beta = x[:len(dst)], beta[:c]
	if rows > 0 {
		channelAffineAsm(&dst[0], &x[0], &gamma[0], &beta[0], rows, c)
	}
}

// ChannelScaleRows writes dst[r*c+j] = g[r*c+j]*gamma[j] for every row r
// of dst, c = len(gamma): one multiply per element. len(dst) must be a
// multiple of c; dst may alias g.
func ChannelScaleRows(dst, g, gamma []float32) {
	rows, c := channelRows(dst, gamma)
	if !hasAVX2 {
		channelScaleGeneric(dst, g, gamma)
		return
	}
	g = g[:len(dst)]
	if rows > 0 {
		channelScaleAsm(&dst[0], &g[0], &gamma[0], rows, c)
	}
}

// ChannelGradRows adds g[r*c+j]*x[r*c+j] into dgamma[j] and g[r*c+j] into
// dbeta[j] for every row r of g, c = len(dgamma), rows in ascending order:
// one multiply then one add per dgamma term, one add per dbeta term, as
// SumRows adds. len(g) must be a multiple of c.
func ChannelGradRows(dgamma, dbeta, g, x []float32) {
	rows, c := channelRows(g, dgamma)
	if !hasAVX2 {
		channelGradGeneric(dgamma, dbeta, g, x)
		return
	}
	dbeta, x = dbeta[:c], x[:len(g)]
	if rows > 0 {
		channelGradAsm(&dgamma[0], &dbeta[0], &g[0], &x[0], rows, c)
	}
}

// BiasRows writes dst[r*c+j] = src[r*c+j] + bias[j] for every row r of
// dst, c = len(bias): AddRowVec's add, in vaddAsm's operand order, with
// lanes across channels and one call per chunk of rows. len(dst) must be
// a multiple of c; dst may alias src.
func BiasRows(dst, src, bias []float32) {
	rows, c := channelRows(dst, bias)
	if !hasAVX2 {
		biasRowsGeneric(dst, src, bias)
		return
	}
	src = src[:len(dst)]
	if rows > 0 {
		biasRowsAsm(&dst[0], &src[0], &bias[0], rows, c)
	}
}

// ReLUClamp writes dst[i] = src[i] where src[i] > 0 and +0 elsewhere (NaN
// and -0 included), for i in [0, len(dst)), without a branch per element.
// dst may alias src.
func ReLUClamp(dst, src []float32) {
	if !hasAVX2 {
		reluClampGeneric(dst, src)
		return
	}
	src = src[:len(dst)]
	if len(dst) > 0 {
		reluClampAsm(&dst[0], &src[0], len(dst))
	}
}

// ReLUMask writes dst[i] = g[i] where out[i] > 0 and +0 elsewhere, for i in
// [0, len(dst)): ReLU's backward from its output, without a branch per
// element. dst may alias g.
func ReLUMask(dst, g, out []float32) {
	if !hasAVX2 {
		reluMaskGeneric(dst, g, out)
		return
	}
	g, out = g[:len(dst)], out[:len(dst)]
	if len(dst) > 0 {
		reluMaskAsm(&dst[0], &g[0], &out[0], len(dst))
	}
}
