//go:build amd64 && !purego

package tensor

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// vecMathExpected reports whether this process should have passed the init
// self-check: the CPU has AVX2 and FMA, math.Exp has not been talked out of
// its FMA path, and the compiler does not fuse the scalar expression trees
// (GOAMD64=v3 does; an explicit conversion forbids fusing, so the two sides
// differ exactly when a*b+c was fused).
func vecMathExpected() bool {
	a, b, c := 1+0x1p-30, 1-0x1p-30, -1.0
	fuses := a*b+c != float64(a*b)+c
	dbg := os.Getenv("GODEBUG")
	return hasAVX2 && hasFMA() && !fuses &&
		!strings.Contains(dbg, "cpu.fma=off") && !strings.Contains(dbg, "cpu.avx=off") && !strings.Contains(dbg, "cpu.all=off")
}

// requireVecMath fails the test when the self-check stood the kernels of
// either width down on a host where they should agree, then dispatches
// them anyway so the comparison that follows names the inputs that differ.
func requireVecMath(t *testing.T) {
	t.Helper()
	prevY, prevZ := useVecMath, useVecMath512
	switch {
	case !vecMathExpected():
		if useVecMath || useVecMath512 {
			t.Error("vector kernels active where math.Exp is off its FMA path or the scalar trees fuse")
		}
		t.Log("vector path not expected on this host: scalar bodies on both sides")
		return
	case !useVecMath:
		t.Error("init self-check rejected the ymm kernels")
		useVecMath = true
	}
	if hasAVX512 && !useVecMath512 {
		t.Error("init self-check rejected the zmm kernels")
		useVecMath512 = true
	}
	t.Cleanup(func() { useVecMath, useVecMath512 = prevY, prevZ })
}

// widthAct is one width's kernels for an activation and their block
// length in elements.
type widthAct struct {
	block int
	k     vecAct
}

// widthActs returns the kernels this process runs for the activation
// name ("gelu" or "tanh"), one per active width.
func widthActs(name string) []widthAct {
	var ws []widthAct
	if useVecMath {
		ws = append(ws, widthAct{4, map[string]vecAct{"gelu": vecGelu, "tanh": vecTanh}[name]})
	}
	if useVecMath512 && name == "gelu" {
		ws = append(ws, widthAct{16, vecGeluZ})
	}
	return ws
}

// checkExpCore compares the exp kernel's float64 results for one 4-block
// with math.Exp; a block the kernel declines has none.
func checkExpCore(xs []float32, maxv float32) bool {
	var o [4]float32
	var e [4]float64
	if !useVecMath || expSubAsm(&o[0], &e[0], &xs[0], maxv, 4) != 4 {
		return true
	}
	for i, x := range xs[:4] {
		if math.Float64bits(e[i]) != math.Float64bits(math.Exp(float64(x-maxv))) {
			return false
		}
	}
	return true
}

// checkSoftmaxExp compares the softmax slab kernel's exp lanes
// (softmaxExpAsm, which shares their code) with math.Exp over xs in
// 8-blocks at max maxv: every e of a block the lanes take, at float64; a
// block they decline must hold a NaN or an argument outside [-700, 100].
// It returns the number of blocks that differ.
func checkSoftmaxExp(t *testing.T, xs []float32, maxv float32) (bad int) {
	t.Helper()
	if !useVecMath512 {
		return 0
	}
	var e [8]float64
	for i := 0; i+8 <= len(xs); i += 8 {
		blk, ok := xs[i:i+8], true
		if softmaxExpAsm(&e[0], &blk[0], maxv, 8) == 8 {
			for k, x := range blk {
				ok = ok && sameBits64(e[k], math.Exp(float64(x-maxv)))
			}
		} else {
			ok = false
			for _, x := range blk {
				a := float64(x - maxv)
				ok = ok || a != a || a < -700 || a > 100
			}
		}
		if !ok {
			if bad++; bad <= 5 {
				t.Errorf("slab exp lanes %v - %v: e %v", blk, maxv, e)
			}
		}
	}
	return bad
}

// checkActCore runs every active width's kernels for name over the
// longest prefix of xs it takes whole blocks of — the float64 lanes and
// the float32 row — and compares them with the scalar definition, y and d
// as bits. It returns the index of the first input that differs, or -1.
func checkActCore(name string, xs []float32) int {
	for _, w := range widthActs(name) {
		n := len(xs) / w.block * w.block
		if n == 0 {
			continue
		}
		x, y, d := make([]float64, n), make([]float64, n), make([]float64, n)
		y32, d32 := make([]float32, n), make([]float32, n)
		for i, v := range xs[:n] {
			x[i] = float64(v)
		}
		w.k.f64(&y[0], &d[0], &x[0], n)
		w.k.row(&y32[0], &d32[0], &xs[0], nil, n)
		for i, v := range x {
			wy, wd := w.k.f(v)
			if !sameBits64(y[i], wy) || !sameBits64(d[i], wd) || !sameBits(y32[i], float32(wy)) || !sameBits(d32[i], float32(wd)) {
				return i
			}
		}
	}
	return -1
}

// TestVecMathVerdicts holds the two verdicts to the host: the zmm one
// never without the ymm one and AVX-512F, both off where math.Exp is off
// its FMA path (the GODEBUG=cpu.fma=off leg of make check), both on where
// it is on and the CPU has the instructions.
func TestVecMathVerdicts(t *testing.T) {
	if useVecMath512 && !(useVecMath && hasAVX512) {
		t.Error("zmm kernels active without the ymm verdict or without AVX-512F")
	}
	if want := vecMathExpected(); useVecMath != want || useVecMath512 != (want && hasAVX512) {
		t.Errorf("verdicts ymm %v zmm %v, want ymm %v zmm %v", useVecMath, useVecMath512, want, want && hasAVX512)
	}
	t.Logf("AVX2 %v, AVX-512F %v: ymm rows %v, zmm rows %v", hasAVX2, hasAVX512, useVecMath, useVecMath512)
}

// TestVectorPathStepsAsideOnMismatch hands the gate a scalar exp that is
// one ulp off: both verdicts must be false, and with them in place the
// GELU row wrapper must enter no kernel of either width, the softmax rows
// must not enter the slab kernel, and expSubRow must give expSubGeneric's
// bits. A passing ymm verdict beside a failing zmm one keeps the zmm GELU
// row and the slab kernel out likewise.
func TestVectorPathStepsAsideOnMismatch(t *testing.T) {
	prevY, prevZ := useVecMath, useVecMath512
	defer func() { useVecMath, useVecMath512 = prevY, prevZ }()
	useVecMath, useVecMath512 = vecMathGate(func(x float64) float64 { return math.Nextafter(math.Exp(x), 2) })
	if useVecMath || useVecMath512 {
		t.Fatalf("self-check passed against a wrong scalar exp (ymm %v, zmm %v)", useVecMath, useVecMath512)
	}
	xs := vecMathSweep()[:64]
	y, d, wy, wd := make([]float32, 64), make([]float32, 64), make([]float32, 64), make([]float32, 64)
	RowYD(geluYD, wy, wd, xs, nil)
	check := func(label string) {
		t.Helper()
		for i := range xs {
			if !sameBits(y[i], wy[i]) || !sameBits(d[i], wd[i]) {
				t.Fatalf("%s: dispatch differs from RowYD at %v", label, xs[i])
			}
		}
	}
	spy := func(out, keep, src, bias *float32, n int) {
		t.Error("kernel entered after a failed self-check")
	}
	actRow(spy, vecAct{row: spy, f: geluYD}, y, d, xs, nil)
	check("both verdicts false")
	slabSpy := func(dst, src *float32, rows, c int, scale float32) bool {
		t.Error("softmax slab kernel entered after a failed self-check")
		return false
	}
	so, wso := make([]float32, 64), make([]float32, 64)
	softmaxRowsWith(slabSpy, so, xs, 8, 0.5)
	if softmaxRowsGeneric(wso, xs, 8, 0.5); !slices.Equal(bits32(so), bits32(wso)) {
		t.Fatal("softmax dispatch differs from softmaxRowsGeneric")
	}
	eo, weo := make([]float32, 64), make([]float32, 64)
	if s, ws := expSubRow(eo, xs, 0.5), expSubGeneric(weo, xs, 0.5, 0); !sameBits64(s, ws) || !slices.Equal(bits32(eo), bits32(weo)) {
		t.Fatal("exp dispatch differs from expSubGeneric")
	}
	if vecMathExpected() {
		useVecMath = true
		actRow(spy, vecGelu, y, d, xs, nil)
		check("ymm verdict only")
		softmaxRowsWith(slabSpy, so, xs, 8, 0.5)
		if ymm, zmm := vecMathGate(math.Exp); !ymm || zmm != hasAVX512 {
			t.Errorf("self-check against math.Exp itself: ymm %v zmm %v", ymm, zmm)
		}
	}
}
