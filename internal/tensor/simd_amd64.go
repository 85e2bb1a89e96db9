//go:build amd64

package tensor

// AVX2 dispatch for the SIMD micro-kernels. Detection runs once at init
// via raw CPUID/XGETBV (no external dependencies): the OS must have
// enabled XSAVE state for the YMM registers and the CPU must advertise
// AVX2. Everything falls back to the portable scalar bodies otherwise, so
// results are identical either way — the assembly preserves scalar
// operation order per output element.

//go:noescape
func saxpyAsm(dst, x *float32, n int, a float32)

//go:noescape
func vaddAsm(dst, x *float32, n int)

//go:noescape
func tileKernelAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)

//go:noescape
func tileKernelDenseAsm(out *float32, os int, a *float32, si, sp int, b *float32, n, kc int)

//go:noescape
func zeroFreeAsm(x *float32, n int) bool

//go:noescape
func reluClampAsm(dst, src *float32, n int)

//go:noescape
func reluMaskAsm(dst, grad, out *float32, n int)

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

func xgetbvAsm() (eax, edx uint32)

// hasAVX2 gates the assembly paths; resolved once at package init.
var hasAVX2 = detectAVX2()

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

// vadd computes dst[i] += x[i] for i in [0, len(dst)).
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
// lanes compute and store the same row). dense selects the body without the
// exact-zero skip; the caller passes denseCoefs of the coefficients the call
// reads, so it is only true where both bodies give the same bits.
func tileKernel(out []float32, os, rows, n int, a []float32, si, sp int, b []float32, kc int, dense bool) {
	if !hasAVX2 {
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
		if dense {
			tileKernelDenseAsm(&out[r*os], os, &a[r*si], si, sp, &b[0], n, kc)
		} else {
			tileKernelAsm(&out[r*os], os, &a[r*si], si, sp, &b[0], n, kc)
		}
	}
	for ; r < rows; r++ {
		if dense {
			tileKernelDenseAsm(&out[r*os], 0, &a[r*si], 0, sp, &b[0], n, kc)
		} else {
			tileKernelAsm(&out[r*os], 0, &a[r*si], 0, sp, &b[0], n, kc)
		}
	}
}

// denseCoefs reports whether the tile kernel may run its dense body over
// coefficients drawn from x: AVX2 is present and no element of x is a zero
// of either sign (Go's x[i] == 0; NaN and subnormals are not zero). One
// vector scan, stopped at the first zero; without AVX2 there is one body
// and nothing to scan.
func denseCoefs(x []float32) bool {
	if !hasAVX2 {
		return false
	}
	return len(x) == 0 || zeroFreeAsm(&x[0], len(x))
}

// ReLUClamp writes dst[i] = src[i] where src[i] > 0 and +0 elsewhere (NaN
// and -0 included), for i in [0, len(dst)), without a branch per element.
// dst may be src.
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
// element. dst may be g.
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
