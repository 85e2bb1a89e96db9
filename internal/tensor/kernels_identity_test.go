package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The tiled and cache-aware kernels must be bit-identical to the seed
// bodies in reference_test.go for every schedule: any tile sizes (including
// non-divisible edge tiles and degenerate 1-row/1-col shapes), serial or
// parallel. These tests sweep random shapes and schedules and compare
// raw float32 bit patterns, with exact zeros (both signs) injected to
// exercise the sparsity skip paths.

type testForce struct{ sch Schedule }

func (f testForce) Schedule(Op, [3]int, int) (Schedule, bool) { return f.sch, true }

// fillMixed fills a tensor with normals plus injected +0/-0 values.
func fillMixed(rng *rand.Rand, x *Tensor) *Tensor {
	d := x.Data()
	for i := range d {
		switch rng.Intn(6) {
		case 0:
			d[i] = 0
		case 1:
			d[i] = float32(math.Copysign(0, -1))
		default:
			d[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// fillDense fills a tensor with normals and no zero of either sign: the
// coefficients the tile kernel's dense body runs on.
func fillDense(rng *rand.Rand, x *Tensor) *Tensor {
	d := x.Data()
	for i := range d {
		for d[i] = float32(rng.NormFloat64()); math.Float32bits(d[i])<<1 == 0; d[i] = float32(rng.NormFloat64()) {
		}
	}
	return x
}

// plantSpecials writes NaN, +Inf and -Inf into the matrix x, the two
// infinities in distinct rows and columns, so no product sum along a row
// or a column of x meets both. Their sum would be x86's default NaN (bits
// ffc00000), and where two NaN payloads meet in an add the result depends
// on the operand order, which compiled Go — the seed oracle — does not fix:
// a -race build swaps it.
func plantSpecials(rng *rand.Rand, x *Tensor) {
	rows, cols, d := x.Rows(), x.Cols(), x.Data()
	d[rng.Intn(len(d))] = float32(math.NaN())
	r, c := rng.Intn(rows), rng.Intn(cols)
	d[r*cols+c] = float32(math.Inf(1))
	if rows > 1 && cols > 1 {
		r, c = (r+1+rng.Intn(rows-1))%rows, (c+1+rng.Intn(cols-1))%cols
		d[r*cols+c] = float32(math.Inf(-1))
	}
}

func assertBitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Fatalf("%s: length %d, want %d", name, len(gd), len(wd))
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Fatalf("%s: element %d = %v (bits %08x), want %v (bits %08x)",
				name, i, gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
		}
	}
}

// matmulSchedules enumerates schedules to sweep: default tiles, random
// tiles (edge tiles when they don't divide the shape), single-row tiles,
// a forced-parallel leg so -race exercises the chunked path, and tiles
// larger than any matrix, which must clamp rather than overflow i0+tm in a
// chunk starting past row 0.
func matmulSchedules(rng *rand.Rand, k int) []Schedule {
	return []Schedule{
		{},
		{TileM: 1, TileK: 1},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4)},
		{TileM: 4, TileK: 256},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4), Workers: 4, SerialBelow: 1},
		{TileM: math.MaxInt, TileK: math.MaxInt, Workers: 4, SerialBelow: 1},
	}
}

func TestMatMulFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	var shapes [][3]int
	for iter := 0; iter < 40; iter++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(33), 1 + rng.Intn(40), 1 + rng.Intn(33)})
	}
	// What the tile kernel branches on: every column-block mix of zmm 32
	// (with AVX-512F), 16, 8, 4 and 1, with 1-3 rows left over after the
	// 4-row tiles (n = 12 is the attention score width at BERT-mini's
	// sequence length: 8 + 4).
	for i, n := range []int{1, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 20, 24, 31, 32, 33, 47, 48, 63, 64, 65, 72, 96, 144} {
		shapes = append(shapes, [3]int{4*(1+i%3) + 1 + i%3, 3 + rng.Intn(30), n})
	}
	nan := float32(math.NaN())
	for iter, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := fillMixed(rng, New(m, k))
		b := fillMixed(rng, New(k, n))
		bt := fillMixed(rng, New(n, k))
		at := fillMixed(rng, New(k, m))
		if iter%2 == 1 { // no zero coefficient: the dense kernel's operands, specials in b
			fillDense(rng, a)
			fillDense(rng, at)
			plantSpecials(rng, b)
			plantSpecials(rng, bt)
		}
		if iter%5 == 4 { // a NaN coefficient is not a zero: its row must turn NaN
			a.Data()[rng.Intn(m*k)] = nan
			at.Data()[rng.Intn(m*k)] = nan
		}
		wantMM := refMatMul(a, b)
		wantBT := refMatMulBT(a, bt)
		wantAT := refMatMulAT(at, b)
		for _, sch := range matmulSchedules(rng, k) {
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "MatMul "+sch.String(), MatMul(a, b), wantMM)
			assertBitsEqual(t, "MatMulBT "+sch.String(), MatMulBT(a, bt), wantBT)
			assertBitsEqual(t, "MatMulAT "+sch.String(), MatMulAT(at, b), wantAT)
			SetScheduleSource(nil)
		}
	}
}

// TestMatMulATTileEdges pins MatMulAT's row-block × K-block path (the
// family's matMulTile read through transposed strides) to the seed
// body on the shapes the random sweep only hits by luck: m not a
// multiple of the 4-row tile, k not a multiple of the K-block, exact-zero
// coefficients (both signs) in every subset of a tile's four lanes, an
// Inf/NaN row of b that only a zero coefficient keeps out of an output
// row, and a NaN coefficient, which is not a zero.
func TestMatMulATTileEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, tc := range []struct{ m, k, n, tileK int }{
		{m: 4, k: 9, n: 8, tileK: 4},   // one full tile, ragged last K-block
		{m: 7, k: 10, n: 5, tileK: 4},  // tile + 3 leftover rows
		{m: 9, k: 13, n: 17, tileK: 5}, // two tiles + 1 row, n = one 16-block + 1
		{m: 6, k: 5, n: 3, tileK: 0},   // default K-block (whole k)
		{m: 3, k: 6, n: 4, tileK: 2},   // no full tile at all
		{m: 8, k: 7, n: 25, tileK: 3},  // column blocks of 16, 8 and 1
	} {
		for lanes := 0; lanes < 32; lanes++ { // bits 0-3: zero lanes; bit 4: a NaN coefficient
			a := RandNormal(rng, 1, tc.k, tc.m) // no zeros except the ones planted below
			b := RandNormal(rng, 1, tc.k, tc.n)
			// Term p of the first tile gets a zero coefficient in each lane
			// of the pattern (alternating signs of zero); b's row p is all
			// Inf/NaN.
			p := tc.k - 1 // in the ragged K-block when there is one
			zero := func(i int) bool { return i < 4 && lanes&(1<<i) != 0 }
			for i := 0; i < tc.m; i++ {
				if zero(i) {
					a.Data()[p*tc.m+i] = []float32{0, negZero}[i%2]
				}
			}
			withNaN := lanes&16 != 0
			if withNaN {
				a.Data()[lanes%tc.m] = nan // term 0
			}
			for j := range b.Row(p) {
				b.Row(p)[j] = inf
				if j%2 == 1 {
					b.Row(p)[j] = nan
				}
			}
			want := refMatMulAT(a, b)
			for i := 0; i < tc.m && !withNaN; i++ {
				for _, v := range want.Row(i) {
					if zero(i) && (math.IsInf(float64(v), 0) || math.IsNaN(float64(v))) {
						t.Fatalf("m%d k%d n%d lanes %04b: reference row %d saw the Inf/NaN row through a zero coefficient", tc.m, tc.k, tc.n, lanes, i)
					}
				}
			}
			for _, sch := range []Schedule{
				{TileK: tc.tileK},
				{TileM: 4, TileK: tc.tileK},
				{TileM: 1, TileK: tc.tileK},
				{TileK: tc.tileK, Workers: 4, SerialBelow: 1},
			} {
				SetScheduleSource(testForce{sch})
				assertBitsEqual(t, "MatMulAT "+sch.String(), MatMulAT(a, b), want)
				SetScheduleSource(nil)
			}
		}
	}
}

// TestMatMulFamilyLoneZero plants one zero coefficient (either sign) in
// an otherwise zero-free operand, in front of a b row that is all Inf and
// NaN: only the skip keeps that row out of the coefficient's output row, so
// a dense choice over a non-finite b turns it NaN. The zero sits at the
// first term, in the ragged last K-block, in a 1-3-row tail after the 4-row
// tiles and in the second chunk of a parallel fan-out, for MatMul, MatMulBT
// and MatMulAT at worker caps 1-3. The finite-b leg puts the same zeros,
// and a whole row of zero coefficients of both signs, in front of finite
// mixed-sign b rows, where the dense body runs: its -0 products meet +0
// accumulators and must leave them as the skip does.
func TestMatMulFamilyLoneZero(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	const m, k, n = 11, 10, 13 // two 4-row tiles + 3 rows; K-blocks 4, 4, 2
	for _, at := range []struct {
		name string
		i, p int
	}{
		{"first term", 1, 0},
		{"ragged K-block", 2, k - 1},
		{"row tail", m - 2, 5},
		{"second chunk", 7, 3}, // rows 6-10 at two workers, 4-7 at three
	} {
		for sign, zero := range []float32{0, float32(math.Copysign(0, -1))} {
			a, aT := fillDense(rng, New(m, k)), fillDense(rng, New(k, m))
			b, bt := fillDense(rng, New(k, n)), fillDense(rng, New(n, k))
			a.Data()[at.i*k+at.p], aT.Data()[at.p*m+at.i] = zero, zero
			for j := 0; j < n; j++ {
				special := []float32{inf, -inf, nan}[j%3]
				b.Data()[at.p*n+j], bt.Data()[j*k+at.p] = special, special
			}
			wantMM, wantBT, wantAT := refMatMul(a, b), refMatMulBT(a, bt), refMatMulAT(aT, b)
			for _, want := range []*Tensor{wantMM, wantBT, wantAT} {
				for _, v := range want.Row(at.i) {
					if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
						t.Fatalf("%s: reference row %d saw the Inf/NaN row through its zero coefficient", at.name, at.i)
					}
				}
			}
			checkLoneZero(t, fmt.Sprintf("%s sign %d", at.name, sign), a, aT, b, bt, wantMM, wantBT, wantAT)
		}
	}
	// Finite b: every zero above at once, plus an all-zero row zeroRow of a
	// (and column zeroRow of aT) with alternating signs.
	const zeroRow = 5
	for sign, zero := range []float32{0, float32(math.Copysign(0, -1))} {
		a, aT := fillDense(rng, New(m, k)), fillDense(rng, New(k, m))
		b, bt := fillMixed(rng, New(k, n)), fillMixed(rng, New(n, k))
		for _, at := range []struct{ i, p int }{{1, 0}, {2, k - 1}, {m - 2, 5}, {7, 3}} {
			a.Data()[at.i*k+at.p], aT.Data()[at.p*m+at.i] = zero, zero
		}
		for p := 0; p < k; p++ {
			z := []float32{0, float32(math.Copysign(0, -1))}[(p+sign)%2]
			a.Data()[zeroRow*k+p], aT.Data()[p*m+zeroRow] = z, z
		}
		if denseB([]float32{1}) && !(denseB(b.Data()) && denseB(bt.Data())) { // a dense body exists, but not for this b
			t.Fatal("finite b reads as non-finite: the leg would not run the dense body")
		}
		wantMM, wantBT, wantAT := refMatMul(a, b), refMatMulBT(a, bt), refMatMulAT(aT, b)
		for _, want := range []*Tensor{wantMM, wantBT, wantAT} {
			for _, v := range want.Row(zeroRow) {
				if math.Float32bits(v) != 0 {
					t.Fatalf("finite b: reference row %d of zero coefficients holds %v (bits %08x), want +0", zeroRow, v, math.Float32bits(v))
				}
			}
		}
		checkLoneZero(t, fmt.Sprintf("finite b sign %d", sign), a, aT, b, bt, wantMM, wantBT, wantAT)
	}
}

// checkLoneZero runs TestMatMulFamilyLoneZero's operands through the three
// matmuls at worker caps 1-3 under its K-blocked, forced-parallel and
// single-row schedules.
func checkLoneZero(t *testing.T, name string, a, aT, b, bt, wantMM, wantBT, wantAT *Tensor) {
	t.Helper()
	const tileK = 4
	for workers := 1; workers <= 3; workers++ {
		SetMaxWorkers(workers)
		for _, sch := range []Schedule{{TileK: tileK}, {TileK: tileK, SerialBelow: 1}, {TileM: 1, SerialBelow: 1}} {
			label := fmt.Sprintf("%s workers %d %s", name, workers, sch.String())
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "MatMul "+label, MatMul(a, b), wantMM)
			assertBitsEqual(t, "MatMulBT "+label, MatMulBT(a, bt), wantBT)
			assertBitsEqual(t, "MatMulAT "+label, MatMulAT(aT, b), wantAT)
			SetScheduleSource(nil)
		}
	}
}

// randGeom draws a conv/pool geometry with at least one output position,
// covering non-unit strides, padding, and 1-wide degenerate planes.
func randGeom(rng *rand.Rand) ConvGeom {
	for {
		g := ConvGeom{
			InH: 1 + rng.Intn(10), InW: 1 + rng.Intn(10), InC: 1 + rng.Intn(5),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3),
		}
		if g.InH+2*g.PadH >= g.KH && g.InW+2*g.PadW >= g.KW {
			return g
		}
	}
}

func convSchedules() []Schedule {
	return []Schedule{
		{},                           // default heuristics
		{Workers: 4, SerialBelow: 1}, // forced parallel
		{Workers: 1},                 // forced serial
	}
}

func TestConvFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter := 0; iter < 40; iter++ {
		g := randGeom(rng)
		batch := 1 + rng.Intn(4)
		x := fillMixed(rng, New(batch, g.InH, g.InW, g.InC))
		oh, ow := g.OutH(), g.OutW()
		cols := fillMixed(rng, New(batch*oh*ow, g.KH*g.KW*g.InC))

		wantIm := refIm2Col(x, g)
		wantCol := refCol2Im(cols, batch, g)
		wantMP, wantArg := refMaxPool2D(x, g)
		wantGap := refGlobalAvgPool(x)
		for _, sch := range convSchedules() {
			SetScheduleSource(testForce{sch})
			assertBitsEqual(t, "Im2Col "+sch.String(), Im2Col(x, g), wantIm)
			assertBitsEqual(t, "Col2Im "+sch.String(), Col2Im(cols, batch, g), wantCol)
			gotMP, gotArg := MaxPool2D(x, g)
			assertBitsEqual(t, "MaxPool2D "+sch.String(), gotMP, wantMP)
			for i := range gotArg {
				if gotArg[i] != wantArg[i] {
					t.Fatalf("MaxPool2D %s: argmax %d = %d, want %d", sch.String(), i, gotArg[i], wantArg[i])
				}
			}
			assertBitsEqual(t, "GlobalAvgPool "+sch.String(), GlobalAvgPool(x), wantGap)

			// Backward scatters have no seed body of their own; the
			// forced-parallel leg checks chunk disjointness under -race.
			grad := fillMixed(rng, New(batch, g.InC))
			assertBitsEqual(t, "GlobalAvgPoolBackward "+sch.String(),
				GlobalAvgPoolBackward(grad, x.Shape()), GlobalAvgPoolBackward(grad, x.Shape()))
			pg := fillMixed(rng, New(batch, oh, ow, g.InC))
			assertBitsEqual(t, "MaxPool2DBackward "+sch.String(),
				MaxPool2DBackward(pg, wantArg, x.Shape()), MaxPool2DBackward(pg, wantArg, x.Shape()))
			SetScheduleSource(nil)
		}
	}
}

// TestSIMDHelpersMatchScalar pins the assembly helpers to the scalar
// bodies bit for bit: one multiply then one add per element, no FMA.
func TestSIMDHelpersMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	nan := float32(math.NaN())
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(130) // crosses the 8- and 32-lane boundaries
		dst := fillMixed(rng, New(n))
		x := fillMixed(rng, New(n))
		a := float32(rng.NormFloat64())

		wantAxpy := dst.Clone()
		saxpyGeneric(wantAxpy.Data(), x.Data(), a)
		gotAxpy := dst.Clone()
		saxpy(gotAxpy.Data(), x.Data(), a)
		assertBitsEqual(t, "saxpy", gotAxpy, wantAxpy)

		wantAdd := dst.Clone()
		vaddGeneric(wantAdd.Data(), x.Data())
		gotAdd := dst.Clone()
		vadd(gotAdd.Data(), x.Data())
		assertBitsEqual(t, "vadd", gotAdd, wantAdd)

		// ReLU clamp and mask: -0 and NaN inputs must come out +0.
		x.Data()[rng.Intn(n)] = nan
		wantClamp, gotClamp := New(n), New(n)
		reluClampGeneric(wantClamp.Data(), x.Data())
		ReLUClamp(gotClamp.Data(), x.Data())
		assertBitsEqual(t, "ReLUClamp", gotClamp, wantClamp)
		for i, v := range gotClamp.Data() {
			if !(x.Data()[i] > 0) && math.Float32bits(v) != 0 {
				t.Fatalf("ReLUClamp(%v) = %v (bits %08x), want +0", x.Data()[i], v, math.Float32bits(v))
			}
		}
		wantMask, gotMask := New(n), New(n)
		reluMaskGeneric(wantMask.Data(), dst.Data(), x.Data())
		ReLUMask(gotMask.Data(), dst.Data(), x.Data())
		assertBitsEqual(t, "ReLUMask", gotMask, wantMask)

		// Aliased calls, as donation and owned gradients make them: each
		// gives the bits of the call into a separate dst.
		self := dst.Clone()
		vadd(self.Data(), self.Data())
		twice := dst.Clone()
		vadd(twice.Data(), dst.Data())
		assertBitsEqual(t, "vadd(a, a)", self, twice)
		self = x.Clone()
		ReLUClamp(self.Data(), self.Data())
		assertBitsEqual(t, "ReLUClamp(x, x)", self, gotClamp)
		self = dst.Clone()
		ReLUMask(self.Data(), self.Data(), x.Data())
		assertBitsEqual(t, "ReLUMask(g, g, out)", self, gotMask)

		checkTileKernel(t, rng, n)
		checkChannelHelpers(t, rng, 1+rng.Intn(70))
		checkBiasRows(t, rng, 1+rng.Intn(70))
	}
	// 32-, 8- and 1-channel blocks by name: ResNet-mini's 8-64 channels and
	// mixes with a tail.
	for _, c := range []int{1, 7, 8, 12, 16, 32, 33, 41, 64} {
		checkChannelHelpers(t, rng, c)
		checkBiasRows(t, rng, c)
	}
	checkChannelGradNaNs(t)
	checkChannelGradBetaNaNs(t)
	// Every column-block mix of 16, 8, 4 and 1 by name: 4 and 12 end on
	// the 4-block, 5, 7, 13 and 20 leave single columns after it; 48, 61
	// and 77 put a zmm 32-block in front of them.
	for _, n := range []int{4, 5, 7, 12, 13, 20, 48, 61, 77} {
		checkTileKernel(t, rng, n)
	}

	// Zero coefficients leave out as it is. Every coefficient is a zero (both
	// signs). Over a b holding Inf and NaN (0 x Inf and 0 x NaN are NaN) the
	// scan picks the portable body, whose skip leaves even a -0 in out alone.
	// Over a finite b the dense body adds 0 x b = +-0, which leaves +0,
	// +-Inf, NaN and nonzero values alone — out holds no -0 there, as no
	// accumulator does.
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	const rows, kc, n = 7, 3, 29 // 4-row tile + 3 single rows; column blocks of 16, 8, 4 and 1
	coef := New(rows, kc)
	for i := range coef.Data() {
		coef.Data()[i] = []float32{0, negZero}[i%2]
	}
	for _, finite := range []bool{false, true} {
		held := []float32{negZero, 0, inf, -inf, nan, 1.5}
		bv := []float32{1, inf, nan, -2}
		if finite {
			held[0], bv[1], bv[2] = -3, math.MaxFloat32, negZero
		}
		out, b := New(rows, n), New(kc, n)
		for i := range out.Data() {
			out.Data()[i] = held[i%len(held)]
		}
		for i := range b.Data() {
			b.Data()[i] = bv[(i/len(held))%4]
		}
		got := out.Clone()
		tileKernel(got.Data(), n, rows, n, coef.Data(), kc, 1, b.Data(), kc, denseB(b.Data()))
		assertBitsEqual(t, fmt.Sprintf("tileKernel zero terms, finite b %v", finite), got, out)
		got = out.Clone()
		tileKernelGeneric(got.Data(), n, rows, n, coef.Data(), kc, 1, b.Data(), kc)
		assertBitsEqual(t, fmt.Sprintf("tileKernelGeneric zero terms, finite b %v", finite), got, out)
	}
}

// checkTileKernel runs the tile kernel against its portable body at width
// n under both stride forms of the family (A row-major and transposed), on
// an accumulator that already holds values, with a NaN coefficient, for out
// row strides n (the matmuls) and wider (the attention kernels' head
// columns, whose gap columns must stay untouched): the dense body on
// coefficients with zeros against a finite b (out then holds no -0, as an
// accumulator never does) and on zero-free coefficients against b holding
// ±Inf and NaN, and the portable dispatch on coefficients with zeros
// against that b, where zeros of both signs in out must survive.
func checkTileKernel(t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	rows, kc := 1+rng.Intn(9), 1+rng.Intn(20)
	finiteB := fillMixed(rng, New(kc, n))
	specialB := finiteB.Clone()
	plantSpecials(rng, specialB)
	mixed, dense := fillMixed(rng, New(rows*kc)), fillDense(rng, New(rows*kc))
	for _, c := range []*Tensor{mixed, dense} {
		c.Data()[rng.Intn(rows*kc)] = float32(math.NaN())
	}
	for _, os := range []int{n, n + 1 + rng.Intn(5)} {
		out := fillMixed(rng, New(rows, os))
		noNegZero := out.Clone()
		for i, v := range noNegZero.Data() {
			if math.Float32bits(v) == 0x80000000 {
				noNegZero.Data()[i] = 0
			}
		}
		for _, st := range [][2]int{{kc, 1}, {1, rows}} {
			for _, tc := range []struct {
				name         string
				out, coef, b *Tensor
				dense        bool
			}{
				{"zeros, finite b", noNegZero, mixed, finiteB, true},
				{"zero-free, specials in b", out, dense, specialB, true},
				{"zeros, specials in b", out, mixed, specialB, false},
			} {
				want, got := tc.out.Clone(), tc.out.Clone()
				tileKernelGeneric(want.Data(), os, rows, n, tc.coef.Data(), st[0], st[1], tc.b.Data(), kc)
				tileKernel(got.Data(), os, rows, n, tc.coef.Data(), st[0], st[1], tc.b.Data(), kc, tc.dense)
				assertBitsEqual(t, fmt.Sprintf("tileKernel %s n=%d os=%d rows=%d", tc.name, n, os, rows), got, want)
			}
		}
	}
}

// checkChannelHelpers holds ChannelAffineRows, ChannelScaleRows and
// ChannelGradRows to their portable bodies at c channels over a few rows,
// with zeros of both signs, ±Inf and NaN in x, g, gamma and beta. The one
// NaN is x86's default NaN, the bits 0·Inf and Inf−Inf produce, so no two
// payloads meet: which one survives depends on the operand order the
// compiler gives the portable body, and that varies with inlining and
// -race. checkChannelGradNaNs and the layers' oracle test hold the
// payloads.
func checkChannelHelpers(t *testing.T, rng *rand.Rand, c int) {
	t.Helper()
	rows := 1 + rng.Intn(9)
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0xffc00000),
	}
	fill := func(n int) []float32 {
		d := make([]float32, n)
		for i := range d {
			d[i] = float32(rng.NormFloat64())
			if rng.Intn(4) == 0 {
				d[i] = specials[rng.Intn(len(specials))]
			}
		}
		return d
	}
	x, g, gamma, beta := fill(rows*c), fill(rows*c), fill(c), fill(c)
	label := fmt.Sprintf("c=%d rows=%d", c, rows)

	want, got := make([]float32, rows*c), make([]float32, rows*c)
	channelAffineGeneric(want, x, gamma, beta)
	ChannelAffineRows(got, x, gamma, beta)
	assertBitsEqual(t, "ChannelAffineRows "+label, FromSlice(got, rows, c), FromSlice(want, rows, c))

	channelScaleGeneric(want, g, gamma)
	ChannelScaleRows(got, g, gamma)
	assertBitsEqual(t, "ChannelScaleRows "+label, FromSlice(got, rows, c), FromSlice(want, rows, c))
	self := append([]float32(nil), g...)
	ChannelScaleRows(self, self, gamma) // aliased, as an owned gradient's dx
	assertBitsEqual(t, "ChannelScaleRows(g, g, γ) "+label, FromSlice(self, rows, c), FromSlice(want, rows, c))

	acc := fill(2 * c) // dgamma, then dbeta
	want, got = append([]float32(nil), acc...), append([]float32(nil), acc...)
	channelGradGeneric(want[:c], want[c:], g, x)
	ChannelGradRows(got[:c], got[c:], g, x)
	assertBitsEqual(t, "ChannelGradRows "+label, FromSlice(got, 2, c), FromSlice(want, 2, c))
}

// checkChannelGradNaNs holds ChannelGradRows to its portable body where
// NaN payloads meet in dgamma's add: two rows, one channel per pick of
// (g, x) for each row from a grid of zeros of both signs, finite values,
// ±Inf and, in x only, two NaN payloads — so a row whose g·x is 0·Inf
// turns the accumulator into the default NaN and a later row's x brings
// another payload to it. The add keeps the accumulator's NaN, as
// layers.ChannelAffine's oracle does. g holds no NaN, so no two payloads
// meet in a product or in dbeta's add, where the operand order is the
// compiler's.
func checkChannelGradNaNs(t *testing.T) {
	t.Helper()
	gs := []float32{0, float32(math.Copysign(0, -1)), 1.5, -2, float32(math.Inf(1)), float32(math.Inf(-1))}
	xs := append(slices.Clone(gs), math.Float32frombits(0x7fc0000c), math.Float32frombits(0xffc00000))
	var g, x [2][]float32
	for _, g0 := range gs {
		for _, x0 := range xs {
			for _, g1 := range gs {
				for _, x1 := range xs {
					g[0], x[0] = append(g[0], g0), append(x[0], x0)
					g[1], x[1] = append(g[1], g1), append(x[1], x1)
				}
			}
		}
	}
	c := len(g[0])
	gr, xr := append(g[0], g[1]...), append(x[0], x[1]...)
	want, got := make([]float32, 2*c), make([]float32, 2*c)
	channelGradGeneric(want[:c], want[c:], gr, xr)
	ChannelGradRows(got[:c], got[c:], gr, xr)
	assertBitsEqual(t, "ChannelGradRows NaN payloads", FromSlice(got, 2, c), FromSlice(want, 2, c))
}

// checkChannelGradBetaNaNs: where two NaN rows meet in dbeta, every
// channel-grad body keeps the payload SumRows keeps — the later row's, as
// vaddAsm keeps its x operand's — at c = 1, 8 and 32 (the single-, 8- and
// 32-channel blocks), whichever body the dispatch runs.
func checkChannelGradBetaNaNs(t *testing.T) {
	t.Helper()
	nanA, nanB := math.Float32frombits(0x7fc0000a), math.Float32frombits(0x7fc0000b)
	for _, c := range []int{1, 8, 32} {
		g, x := make([]float32, 2*c), make([]float32, 2*c)
		for j := 0; j < c; j++ {
			g[j], g[c+j] = nanA, nanB
			x[j], x[c+j] = 1, 1
		}
		want := SumRows(FromSlice(g, 2, c))
		if bits := math.Float32bits(want.Data()[0]); bits != 0x7fc0000b {
			t.Errorf("SumRows over NaN rows %08x then %08x = %08x, want the later row's", 0x7fc0000a, 0x7fc0000b, bits)
		}
		for _, body := range []struct {
			name string
			grad func(dgamma, dbeta, g, x []float32)
		}{{"channelGradGeneric", channelGradGeneric}, {"ChannelGradRows", ChannelGradRows}} {
			dgamma, dbeta := make([]float32, c), make([]float32, c)
			body.grad(dgamma, dbeta, g, x)
			assertBitsEqual(t, fmt.Sprintf("%s dbeta over two NaN rows, c=%d", body.name, c), FromSlice(dbeta, c), want)
		}
	}
}

// checkBiasRows holds BiasRows to AddRowVec, the bias add it stands in
// for, at c channels over a few rows, into a fresh dst and in place: zeros
// of both signs and ±Inf in src and bias, and NaNs of distinct payloads
// meeting in both operand orders — src holds payload a where bias holds b
// on some rows and b where bias holds a on others — so the add must keep
// the payload AddRowVec's vadd keeps, with and without AVX2.
func checkBiasRows(t *testing.T, rng *rand.Rand, c int) {
	t.Helper()
	rows := 2 + rng.Intn(9)
	nanA, nanB := math.Float32frombits(0x7fc0000a), math.Float32frombits(0xffc0000b)
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), nanA, nanB}
	src, bias := fillMixed(rng, New(rows, c)), fillMixed(rng, New(c))
	for i := range src.Data() {
		if rng.Intn(3) == 0 {
			src.Data()[i] = specials[rng.Intn(len(specials))]
		}
	}
	for j := range bias.Data() {
		if j%2 == 0 {
			bias.Data()[j] = []float32{nanA, nanB, float32(math.Inf(-1)), float32(math.Copysign(0, -1))}[j/2%4]
		}
	}
	for r := 0; r < rows; r++ { // every NaN of bias meets the other payload and its own
		for j, b := range bias.Data() {
			if math.IsNaN(float64(b)) && r < 2 {
				src.Row(r)[j] = []float32{nanA, nanB}[r]
			}
		}
	}
	label := fmt.Sprintf("BiasRows c=%d rows=%d", c, rows)
	want := AddRowVec(src, bias)
	got := New(rows, c)
	BiasRows(got.Data(), src.Data(), bias.Data())
	assertBitsEqual(t, label, got, want)
	got = src.Clone()
	BiasRows(got.Data(), got.Data(), bias.Data())
	assertBitsEqual(t, label+" in place", got, want)
}

// TestSIMDHelpersRejectShortOperands: the assembly takes raw pointers, so
// every wrapper must refuse an operand shorter than the extent it will
// touch, as the portable bodies' re-slicing does.
func TestSIMDHelpersRejectShortOperands(t *testing.T) {
	long, short, ch := make([]float32, 40), make([]float32, 39), make([]float32, 8)
	for name, fn := range map[string]func(){
		"saxpy":                 func() { saxpy(long, short, 2) },
		"saxpyGeneric":          func() { saxpyGeneric(long, short, 2) },
		"vadd":                  func() { vadd(long, short) },
		"vaddGeneric":           func() { vaddGeneric(long, short) },
		"ReLUClamp":             func() { ReLUClamp(long, short) },
		"reluClampGeneric":      func() { reluClampGeneric(long, short) },
		"ReLUMask g":            func() { ReLUMask(long, short, long) },
		"ReLUMask out":          func() { ReLUMask(long, long, short) },
		"reluMaskGeneric":       func() { reluMaskGeneric(long, long, short) },
		"tileKernel out":        func() { tileKernel(short, 10, 4, 10, long, 10, 1, long, 4, true) },
		"tileKernel out stride": func() { tileKernel(long, 13, 4, 4, long, 4, 1, long, 4, true) },
		"tileKernel a":          func() { tileKernel(long, 10, 4, 10, short, 12, 1, long, 4, true) },
		"tileKernel b":          func() { tileKernel(long, 10, 4, 10, long, 10, 1, short, 4, true) },
		"tileKernelGeneric a":   func() { tileKernelGeneric(long, 10, 4, 10, short, 12, 1, long, 4) },
		"ChannelAffineRows x":   func() { ChannelAffineRows(long, short, ch, ch) },
		"ChannelAffineRows β":   func() { ChannelAffineRows(long, long, ch, ch[:7:7]) },
		"ChannelAffineRows dst": func() { ChannelAffineRows(short, short, ch, ch) },
		"ChannelScaleRows g":    func() { ChannelScaleRows(long, short, ch) },
		"ChannelScaleRows dst":  func() { ChannelScaleRows(short, short, ch) },
		"ChannelGradRows x":     func() { ChannelGradRows(ch, ch, long, short) },
		"ChannelGradRows g":     func() { ChannelGradRows(ch, ch, short, short) },
		"ChannelGradRows β":     func() { ChannelGradRows(ch, ch[:7:7], long, long) },
		"channelAffineGeneric":  func() { channelAffineGeneric(long, short, ch, ch) },
		"channelScaleGeneric":   func() { channelScaleGeneric(long, short, ch) },
		"channelGradGeneric":    func() { channelGradGeneric(ch, ch, long, short) },
		"BiasRows src":          func() { BiasRows(long, short, ch) },
		"BiasRows dst":          func() { BiasRows(short, short, ch) },
		"biasRowsGeneric":       func() { biasRowsGeneric(long, short, ch) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a short operand", name)
				}
			}()
			fn()
		}()
	}
	// Empty extents are no-ops, not a wrapped-around loop count.
	for _, dense := range []bool{false, true} {
		tileKernel(long, 10, 4, 10, long, 10, 1, long, 0, dense)
		tileKernel(long, 10, 4, 0, long, 10, 1, long, 4, dense)
		tileKernel(long, 10, 0, 10, long, 10, 1, long, 4, dense)
	}
	for i, v := range long {
		if math.Float32bits(v) != 0 {
			t.Fatalf("empty-extent tileKernel wrote long[%d] = %v", i, v)
		}
	}
}
