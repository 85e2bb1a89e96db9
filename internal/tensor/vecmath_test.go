package tensor

import (
	"flag"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// Bit identity of the vector transcendentals (vecmath_amd64.s) with the
// scalar definitions, in three tiers: the always-on sweep below, the
// call-shape matrix over actSweep (internal/layers/activation_test.go), and
// every float32 input behind -exhaustive. Off amd64, or where the init
// self-check stood the kernels down, both sides are the scalar body.

var exhaustive = flag.Bool("exhaustive", false, "run the 2^32-input bit-identity tests (minutes)")

type actKernel struct {
	name string
	row  func(out, keep, src, bias []float32)
	f    func(x float64) (y, d float64)
}

var actKernels = []actKernel{{"gelu", GeluRow, geluYD}, {"tanh", TanhRow, tanhYD}}

// sameBits reports equal bit patterns, or NaN on both sides (a NaN's
// payload and sign are not part of either definition).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a != a && b != b
}

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkAct runs k's row over xs against RowYD and reports every input
// whose y or act′ differs, up to a handful; where the kernels run, their
// float64 lanes are compared as well (checkActCore).
func checkAct(t *testing.T, k actKernel, xs []float32, buf *[4][]float32) (bad int) {
	t.Helper()
	n := len(xs)
	y, d, wy, wd := buf[0][:n], buf[1][:n], buf[2][:n], buf[3][:n]
	k.row(y, d, xs, nil)
	RowYD(k.f, wy, wd, xs, nil)
	if i := checkActCore(k.name, xs); i >= 0 {
		t.Errorf("%s(%v [%08x]): a kernel's lanes differ from the scalar definition", k.name, xs[i], math.Float32bits(xs[i]))
		bad++
	}
	for i, x := range xs {
		if !sameBits(y[i], wy[i]) || !sameBits(d[i], wd[i]) {
			if bad++; bad <= 5 {
				t.Errorf("%s(%v [%08x]): y %08x d %08x, scalar y %08x d %08x", k.name, x, math.Float32bits(x),
					math.Float32bits(y[i]), math.Float32bits(d[i]), math.Float32bits(wy[i]), math.Float32bits(wd[i]))
			}
		}
	}
	return bad
}

// checkExpSub compares expSubRow with expSubGeneric over xs taken as rows
// of four: every float32 output, each row's float64 sum, and (checkExpCore,
// where the kernel runs) every e at float64 — a last-bit difference in one
// e can round away in a sum and in the float32. The softmax slab kernel's
// exp lanes are compared over the same xs (checkSoftmaxExp).
func checkExpSub(t *testing.T, xs []float32, maxv float32, buf *[4][]float32) (bad int) {
	t.Helper()
	bad = checkSoftmaxExp(t, xs, maxv)
	n := len(xs) &^ 3
	or, wor := buf[0][:n], buf[2][:n]
	for j := 0; j < n; j += 4 {
		s := expSubRow(or[j:j+4], xs[j:j+4], maxv)
		ws := expSubGeneric(wor[j:j+4], xs[j:j+4], maxv, 0)
		ok := sameBits64(s, ws)
		for i := j; i < j+4; i++ {
			ok = ok && sameBits(or[i], wor[i])
		}
		if ok = ok && checkExpCore(xs[j:j+4], maxv); !ok {
			if bad++; bad <= 5 {
				t.Errorf("exp-sub row %v - %v: %08x sum %016x, scalar %08x sum %016x", xs[j:j+4], maxv,
					bits32(or[j:j+4]), math.Float64bits(s), bits32(wor[j:j+4]), math.Float64bits(ws))
			}
		}
	}
	return bad
}

func bits32(xs []float32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = math.Float32bits(x)
	}
	return out
}

func newBufs(n int) *[4][]float32 {
	return &[4][]float32{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
}

// geluArg solves geluC·(x + 0.044715x³) = u for x ≥ 0 by bisection.
func geluArg(u float64) float64 {
	lo, hi := 0.0, 64.0
	for i := 0; i < 80; i++ {
		if mid := (lo + hi) / 2; geluC*(mid+0.044715*mid*mid*mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// vecMathSweep is tier (a)'s fixed part: a dense grid on [-12, 12], every
// float32 within 64 ulps of each point where a path switches — 0, tanh's
// |u| = 0.625 and 0.5·MAXLOG directly and mapped back through gelu's u(x),
// the exp kernel's block limits -700 and 100 — and ±0, ±Inf, NaN,
// subnormals and the float32 extremes. The length is a multiple of 16.
func vecMathSweep() []float32 {
	var xs []float32
	for i := -12 * 256; i <= 12*256; i++ {
		xs = append(xs, float32(i)/256)
	}
	const halfMaxLog = 8.8029691931113054295988e+01 / 2
	inf := float32(math.Inf(1))
	for _, p := range []float64{0, 0.625, halfMaxLog, geluArg(0.625), geluArg(halfMaxLog), 100, 700, 1.1754944e-38} {
		up, down := float32(p), float32(p)
		xs = append(xs, up, -up)
		for i := 0; i < 64; i++ {
			up, down = math.Nextafter32(up, inf), math.Nextafter32(down, -inf)
			xs = append(xs, up, -up, down, -down)
		}
	}
	xs = append(xs, inf, -inf, float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.MaxFloat32, -math.MaxFloat32)
	for len(xs)%16 != 0 {
		xs = append(xs, 0)
	}
	return xs
}

func TestVectorTranscendentalsBitIdentity(t *testing.T) {
	requireVecMath(t)
	rng := rand.New(rand.NewSource(7))
	sweep := vecMathSweep()
	xs := make([]float32, 1<<20)
	buf := newBufs(len(xs))
	for _, k := range actKernels {
		checkAct(t, k, sweep, buf)
	}
	for _, maxv := range []float32{0, 0.5, -3, 88} {
		checkExpSub(t, sweep, maxv, buf)
	}
	for _, sigma := range []float64{0.5, 3, 30} {
		for i := range xs {
			xs[i] = float32(rng.NormFloat64() * sigma)
		}
		for _, k := range actKernels {
			checkAct(t, k, xs, buf)
		}
		checkExpSub(t, xs, float32(3*sigma), buf)
	}
}

// TestSoftmaxRowsMatchesScalar pins SoftmaxRows (any width, masked and
// -Inf scores, fully masked rows, both worker caps; and beside them row
// counts 1-19 of in-range scores — full and partial 8-row blocks of the
// slab kernel — and a call past the fan-out threshold) to the scalar body
// it had before the exp kernel, kept verbatim here.
func TestSoftmaxRowsMatchesScalar(t *testing.T) {
	requireVecMath(t)
	scalar := func(a *Tensor) *Tensor {
		out := New(a.Shape()...)
		c := a.Cols()
		for r := 0; r < a.Rows(); r++ {
			ar, or := a.Row(r), out.Row(r)
			maxv := ar[0]
			for _, v := range ar[1:] {
				if v > maxv {
					maxv = v
				}
			}
			var sum float64
			for j := 0; j < c; j++ {
				e := math.Exp(float64(ar[j] - maxv))
				or[j] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for j := 0; j < c; j++ {
				or[j] *= inv
			}
		}
		return out
	}
	check := func(workers int, a *Tensor) {
		t.Helper()
		rows, c := a.Rows(), a.Cols()
		want := scalar(a)
		for i, v := range SoftmaxRows(a).Data() {
			if !sameBits(v, want.Data()[i]) {
				t.Fatalf("workers=%d rows=%d c=%d: element %d = %08x, scalar %08x", workers, rows, c, i, math.Float32bits(v), math.Float32bits(want.Data()[i]))
			}
		}
		into := a.Clone()
		SoftmaxRowsInto(into, into)
		for i, v := range into.Data() {
			if !sameBits(v, want.Data()[i]) {
				t.Fatalf("workers=%d rows=%d c=%d: in-place softmax differs at %d", workers, rows, c, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	prev := int(workerCap.Load())
	defer SetMaxWorkers(prev)
	for _, workers := range []int{1, 2} {
		SetMaxWorkers(workers)
		for c := 1; c <= 67; c++ {
			// Nine rows of random draws with masked, -Inf and -750 scores,
			// and a fully masked row.
			a := RandNormal(rng, 4, 9, c)
			for i := range a.Data() {
				switch rng.Intn(12) {
				case 0:
					a.Data()[i] = -1e9 // an additive attention mask
				case 1:
					a.Data()[i] = float32(math.Inf(-1))
				case 2:
					a.Data()[i] = -750 + float32(rng.NormFloat64())
				}
			}
			for j := range a.Row(0) {
				a.Row(0)[j] = float32(math.Inf(-1)) // fully masked: NaN in both bodies
			}
			check(workers, a)
		}
		for w := 1; w <= 68; w++ {
			// Rows 1-19, whose scores are all in the kernel's range, so
			// full and partial 8-row blocks run the slab kernel: rows of
			// random draws, rows with exponents near -600, and rows of
			// non-positive scores led by zeros of both signs.
			rows, c := 1+w*7%19, w
			if w == 68 { // past the fan-out threshold at a cap of 2
				rows, c = 1024, 12
			}
			a := RandNormal(rng, 4, rows, c)
			for i := range a.Data() {
				switch r := i / c; r % 3 {
				case 1:
					a.Data()[i] -= float32(600 * (i % 2))
				case 2:
					a.Data()[i] = -float32(math.Abs(float64(a.Data()[i])))
					if j := i % c; j < 2 {
						a.Data()[i] = float32(math.Copysign(0, float64(j)-0.5))
					}
				}
			}
			if r := 8 + c%8; r < rows {
				// One score out of the kernel's range in an otherwise
				// clean block, at a column that moves with the width
				// through every place in the kernel's groups of four
				// columns: the block must go to the scalar body.
				j := (c%4 + 4*(c%3)) % c
				a.Row(r)[j] = []float32{-1e9, float32(math.Inf(-1)), float32(math.NaN())}[c%3]
			}
			for b := 1; w == 68 && b <= c; b++ { // and at each column of the 1024×12 call
				a.Row(8*b + b%8)[b-1] = -1e9
			}
			check(workers, a)
		}
	}
}

// TestRowKernelsDoNotAllocate: the row wrappers hold their block buffer on
// the stack and hand the kernels pointers into the caller's rows.
func TestRowKernelsDoNotAllocate(t *testing.T) {
	xs := vecMathSweep()[:1028+3]
	xs[40] = -1e9 // one declined exp block
	y, d, bias := make([]float32, len(xs)), make([]float32, len(xs)), make([]float32, len(xs))
	var sink float64
	for name, fn := range map[string]func(){
		"GeluRow":   func() { GeluRow(y, d, xs, bias) },
		"TanhRow":   func() { TanhRow(y, nil, xs, nil) },
		"expSubRow": func() { sink += expSubRow(y, xs, 1) },
	} {
		if n := testing.AllocsPerRun(20, fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}

// exhaustiveRun feeds check every float32 bit pattern, in blocks, from two
// goroutines (each takes alternate blocks), and fails on any mismatch.
func exhaustiveRun(t *testing.T, check func(t *testing.T, xs []float32, buf *[4][]float32) int) {
	if !*exhaustive {
		t.Skip("pass -exhaustive to run all 2^32 inputs")
	}
	requireVecMath(t)
	const block = 1 << 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			xs, buf, bad := make([]float32, block), newBufs(block), 0
			for b := w; b < 1<<32/block && bad == 0; b += 2 {
				for i := range xs {
					xs[i] = math.Float32frombits(uint32(b*block + i))
				}
				bad += check(t, xs, buf)
			}
			mu.Lock()
			total += bad
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	t.Logf("2^32 inputs, %d mismatches", total)
}

func TestExhaustiveGelu(t *testing.T) {
	exhaustiveRun(t, func(t *testing.T, xs []float32, buf *[4][]float32) int { return checkAct(t, actKernels[0], xs, buf) })
}

func TestExhaustiveTanh(t *testing.T) {
	exhaustiveRun(t, func(t *testing.T, xs []float32, buf *[4][]float32) int { return checkAct(t, actKernels[1], xs, buf) })
}

func TestExhaustiveExpSub(t *testing.T) {
	exhaustiveRun(t, func(t *testing.T, xs []float32, buf *[4][]float32) int { return checkExpSub(t, xs, 0, buf) })
}
