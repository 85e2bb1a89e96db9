//go:build amd64

package tensor

import (
	"math"
	"os"
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

// requireVecMath fails the test when the self-check stood the kernels down
// on a host where they should agree, then dispatches them anyway so the
// comparison that follows names the inputs that differ.
func requireVecMath(t *testing.T) {
	t.Helper()
	switch {
	case !vecMathExpected():
		if useVecMath {
			t.Error("vector kernels active where math.Exp is off its FMA path or the scalar trees fuse")
		}
		t.Log("vector path not expected on this host: scalar bodies on both sides")
	case !useVecMath:
		t.Error("init self-check rejected the vector kernels")
		useVecMath = true
		t.Cleanup(func() { useVecMath = false })
	}
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

// checkActCore compares the float64 lanes of name's kernel with the scalar
// definition over xs (a multiple of 4 long), y and d as bits, and returns
// the index of the first input that differs, or -1.
func checkActCore(name string, xs []float32) int {
	if !useVecMath || len(xs) == 0 {
		return -1
	}
	k := vecGelu
	if name == "tanh" {
		k = vecTanh
	}
	n := len(xs)
	x, y, d := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, v := range xs {
		x[i] = float64(v)
	}
	k.f64(&y[0], &d[0], &x[0], n)
	for i, v := range x {
		if wy, wd := k.f(v); !sameBits64(y[i], wy) || !sameBits64(d[i], wd) {
			return i
		}
	}
	return -1
}

// TestVectorPathStepsAsideOnMismatch hands the gate a scalar exp that is
// one ulp off: the verdict must be false, and with it in place the row
// wrapper must not enter the kernel it is given.
func TestVectorPathStepsAsideOnMismatch(t *testing.T) {
	prev := useVecMath
	defer func() { useVecMath = prev }()
	useVecMath = vecMathGate(func(x float64) float64 { return math.Nextafter(math.Exp(x), 2) })
	if useVecMath {
		t.Fatal("self-check passed against a wrong scalar exp")
	}
	xs := vecMathSweep()[:64]
	y, d, wy, wd := make([]float32, 64), make([]float32, 64), make([]float32, 64), make([]float32, 64)
	spy := func(out, keep, src, bias *float32, n int) {
		t.Error("kernel entered after a failed self-check")
	}
	actRow(vecAct{row: spy, f: geluYD}, y, d, xs, nil)
	RowYD(geluYD, wy, wd, xs, nil)
	for i := range xs {
		if !sameBits(y[i], wy[i]) || !sameBits(d[i], wd[i]) {
			t.Fatalf("scalar dispatch differs from RowYD at %v", xs[i])
		}
	}
	if vecMathExpected() && !vecMathGate(math.Exp) {
		t.Error("self-check fails against math.Exp itself")
	}
}
