//go:build amd64 && !purego

package tensor

import "math"

// Dispatch for the vector transcendentals (vecmath_amd64.s). The kernels
// repeat math.Exp's FMA path, so they run only where math.Exp takes it
// (AVX and FMA) and only after vecMathAgrees has compared them with the
// scalar definitions bit for bit in this process: a GODEBUG=cpu.fma=off run
// or a build whose scalar expression trees fuse leaves the scalar bodies in
// place. Two verdicts, one per register width: useVecMath gates the ymm
// GELU, tanh and exp rows, useVecMath512 the zmm GELU row and the softmax
// slab kernel, and the zmm verdict is never true without the ymm one.

//go:noescape
func geluRowAsm(out, keep, src, bias *float32, n int)

//go:noescape
func tanhRowAsm(out, keep, src, bias *float32, n int)

//go:noescape
func geluF64Asm(y, d, x *float64, n int)

//go:noescape
func tanhF64Asm(y, d, x *float64, n int)

//go:noescape
func expSubAsm(out *float32, e *float64, src *float32, max float32, n int) int

//go:noescape
func geluRowZAsm(out, keep, src, bias *float32, n int)

//go:noescape
func geluF64ZAsm(y, d, x *float64, n int)

//go:noescape
func softmaxAsm(dst, src *float32, rows, c int, scale float32) bool

//go:noescape
func softmaxExpAsm(e *float64, src *float32, max float32, n int) int

// rowKernel is an activation's float32 row kernel.
type rowKernel func(out, keep, src, bias *float32, n int)

// vecAct is one activation's kernels beside the definition they repeat:
// the float32 row, and the same lanes with float64 in and out.
type vecAct struct {
	row rowKernel
	f64 func(y, d, x *float64, n int)
	f   func(x float64) (y, d float64)
}

var (
	vecGelu  = vecAct{geluRowAsm, geluF64Asm, geluYD}
	vecTanh  = vecAct{tanhRowAsm, tanhF64Asm, tanhYD}
	vecGeluZ = vecAct{geluRowZAsm, geluF64ZAsm, geluYD}
)

var useVecMath, useVecMath512 = vecMathGate(math.Exp)

// vecMathGate returns the ymm verdict (the exp row against exp, the scalar
// exp the kernels must repeat, and the GELU and tanh rows) and the zmm
// verdict (the GELU row and the softmax slab kernel's exp lanes), which
// needs the ymm one: a wrong exp fails both.
func vecMathGate(exp func(float64) float64) (ymm, zmm bool) {
	ymm = hasAVX2 && hasFMA() && vecMathAgrees(exp, vecGelu, vecTanh)
	return ymm, ymm && hasAVX512 && vecMathAgrees(exp, vecGeluZ) && softmaxExpAgrees(exp)
}

// softmaxExpAgrees runs softmaxAsm's exp lanes (softmaxExpAsm) over
// vecMathAgrees' strided probe values and compares every e with exp.
func softmaxExpAgrees(exp func(float64) float64) bool {
	const strided = 512
	xs, e := make([]float32, strided), make([]float64, strided)
	for i := range xs {
		xs[i] = float32(i-strided/2) * 0.371
	}
	if softmaxExpAsm(&e[0], &xs[0], 0, strided) != strided {
		return false
	}
	for i, x := range xs {
		if math.Float64bits(e[i]) != math.Float64bits(exp(float64(x))) {
			return false
		}
	}
	return true
}

func hasFMA() bool {
	_, _, ecx1, _ := cpuidAsm(1, 0)
	return ecx1&(1<<12) != 0
}

// vecMathAgrees runs expSubAsm and acts over a fixed probe set — 512
// strided values on [-95, 95] and the neighbourhoods of every point where tanh or
// gelu (u(0.7634259) = 0.625, u(10.031089) = 0.5·MAXLOG) switch paths, ±0,
// ±Inf, NaN, a subnormal and MaxFloat32 — and compares with the scalar definitions, at float64 as well
// as through the float32 rows: math.Exp's FMA and non-FMA paths differ in
// the last bit on about one argument in ten, a fused scalar tree likewise,
// and almost no float32 output shows either.
func vecMathAgrees(exp func(float64) float64, acts ...vecAct) bool {
	const strided = 512
	xs := make([]float32, 0, strided+136)
	for i := 0; i < strided; i++ {
		xs = append(xs, float32(i-strided/2)*0.371)
	}
	inf := float32(math.Inf(1))
	for _, p := range []float32{0, 0.625, 44.014847, 0.7634259, 10.031089, 1e-40, math.MaxFloat32, inf} {
		up, down := p, -p
		for i := 0; i < 4; i++ {
			xs = append(xs, up, -up, down, -down)
			up, down = math.Nextafter32(up, inf), math.Nextafter32(down, inf)
		}
	}
	xs = append(xs, float32(math.NaN()))
	for len(xs)%16 != 0 {
		xs = append(xs, 0)
	}
	n := len(xs)
	y, d := make([]float32, n), make([]float32, n)
	x64, y64, d64 := make([]float64, n), make([]float64, n), make([]float64, n)
	if expSubAsm(&y[0], &y64[0], &xs[0], 0, strided) != strided {
		return false
	}
	for i, x := range xs {
		if x64[i] = float64(x); i < strided && math.Float64bits(y64[i]) != math.Float64bits(exp(x64[i])) {
			return false
		}
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for _, k := range acts {
		k.row(&y[0], &d[0], &xs[0], nil, n)
		k.f64(&y64[0], &d64[0], &x64[0], n)
		for i, x := range x64 {
			wy, wd := k.f(x)
			if !same(y64[i], wy) || !same(d64[i], wd) || !same(float64(y[i]), float64(float32(wy))) || !same(float64(d[i]), float64(float32(wd))) {
				return false
			}
		}
	}
	return true
}

// GeluRow is RowYD over geluYD: sixteen elements at a time (two zmm
// blocks) where the zmm path is active, then four at a time where the ymm
// path is; the last len(src) mod 4 elements take the scalar body.
func GeluRow(out, keep, src, bias []float32) {
	actRow(geluRowZAsm, vecGelu, out, keep, src, bias)
}

// TanhRow is RowYD over tanhYD, four lanes at a time.
func TanhRow(out, keep, src, bias []float32) {
	actRow(nil, vecTanh, out, keep, src, bias)
}

// actRow runs zrow (nil: none) over the longest prefix of 16-element
// blocks, k.row over the 4-blocks after it and k.f over the rest.
func actRow(zrow rowKernel, k vecAct, out, keep, src, bias []float32) {
	n4, n16 := 0, 0
	if useVecMath {
		n4 = len(src) &^ 3
	}
	if useVecMath512 && zrow != nil {
		n16 = len(src) &^ 15
	}
	actBlocks(zrow, out, keep, src, bias, 0, n16)
	actBlocks(k.row, out, keep, src, bias, n16, n4)
	rowYD(k.f, out, keep, src, bias, n4)
}

// actBlocks runs row over elements [lo, hi), re-slicing every operand to
// that extent first so a short one panics here.
func actBlocks(row rowKernel, out, keep, src, bias []float32, lo, hi int) {
	if hi <= lo {
		return
	}
	var kp, bp *float32
	if keep != nil {
		kp = &keep[lo:hi][0]
	}
	if bias != nil {
		bp = &bias[lo:hi][0]
	}
	row(&out[lo:hi][0], kp, &src[lo:hi][0], bp, hi-lo)
}

// softmaxKernel is the softmax slab kernel's signature (softmaxAsm): one
// block of rows ≤ 8 rows of c ≤ softmaxMaxCols, false where it declined
// the block without writing dst.
type softmaxKernel func(dst, src *float32, rows, c int, scale float32) bool

// softmaxMaxCols is the widest row the slab kernel takes: its frame holds
// the block's columns.
const softmaxMaxCols = 16

// softmaxRows is softmaxRowsGeneric through the softmax slab kernel where
// the zmm verdict holds and rows are at most softmaxMaxCols wide: eight
// rows at a time (the last block partial), one row's max, exp sum and
// normalization per lane, each row's sum in ascending j. A block the kernel
// declines (a NaN or an exponent outside [-700, 100]: masked scores,
// -Inf, as expSubAsm declines a 4-block) runs the scalar body. len(src)
// must be a multiple of c; dst may be src.
func softmaxRows(dst, src []float32, c int, scale float32) {
	softmaxRowsWith(softmaxAsm, dst, src, c, scale)
}

func softmaxRowsWith(k softmaxKernel, dst, src []float32, c int, scale float32) {
	if !useVecMath512 || c > softmaxMaxCols {
		softmaxRowsGeneric(dst, src, c, scale)
		return
	}
	dst = dst[:len(src)]
	for r := 0; r < len(src); r += 8 * c {
		n := min(8, (len(src)-r)/c)
		d, s := dst[r:r+n*c], src[r:r+n*c]
		if !k(&d[0], &s[0], n, c, scale) {
			softmaxRowsGeneric(d, s, c, scale)
		}
	}
}

// expSubRow is expSubGeneric from a zero sum. The kernel leaves each e in a
// stack block so the additions stay sequential in ascending j; a 4-block
// the kernel declines (a lane NaN or outside [-700, 100]: masked scores,
// -Inf) goes through math.Exp, which owns the under/overflow branches.
func expSubRow(or, ar []float32, maxv float32) (sum float64) {
	n4 := len(ar) &^ 3
	if !useVecMath || n4 == 0 {
		return expSubGeneric(or, ar, maxv, 0)
	}
	or = or[:len(ar)]
	var buf [32]float64
	for j := 0; j < n4; {
		n := min(n4-j, len(buf))
		done := expSubAsm(&or[j], &buf[0], &ar[j], maxv, n)
		for _, e := range buf[:done] {
			sum += e
		}
		if j += done; done < n {
			sum = expSubGeneric(or[j:j+4], ar[j:j+4], maxv, sum)
			j += 4
		}
	}
	return expSubGeneric(or[n4:], ar[n4:], maxv, sum)
}
