package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The blocked/tiled/fast kernel variants must be bit-identical to the
// seed naive references for every schedule: any tile sizes (including
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
// and a forced-parallel leg so -race exercises the chunked path.
func matmulSchedules(rng *rand.Rand, k int) []Schedule {
	return []Schedule{
		{},
		{TileM: 1, TileK: 1},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4)},
		{TileM: 4, TileK: 256},
		{TileM: 1 + rng.Intn(6), TileK: 1 + rng.Intn(k+4), Workers: 4, SerialBelow: 1},
	}
}

func TestMatMulFamilyBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	for iter := 0; iter < 40; iter++ {
		m, k, n := 1+rng.Intn(33), 1+rng.Intn(40), 1+rng.Intn(33)
		a := fillMixed(rng, New(m, k))
		b := fillMixed(rng, New(k, n))
		bt := fillMixed(rng, New(n, k))
		at := fillMixed(rng, New(k, m))
		wantMM := MatMulNaive(a, b)
		wantBT := MatMulBTNaive(a, bt)
		wantAT := MatMulATNaive(at, b)
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
// family's matMulTile read through transposed strides) to the naive
// reference on the shapes the random sweep only hits by luck: m not a
// multiple of the 4-row tile, k not a multiple of the K-block, exact-zero
// coefficients in one to four lanes of a tile, and an Inf/NaN row of b that
// only a zero coefficient keeps out of an output row.
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
		{m: 9, k: 13, n: 17, tileK: 5}, // two tiles + 1 row, n past one SIMD lane group
		{m: 6, k: 5, n: 3, tileK: 0},   // default K-block (whole k)
		{m: 3, k: 6, n: 4, tileK: 2},   // no full tile at all
	} {
		for lanes := 0; lanes <= 4; lanes++ {
			a := RandNormal(rng, 1, tc.k, tc.m) // no zeros except the ones planted below
			b := RandNormal(rng, 1, tc.k, tc.n)
			// Term p of the first tile gets `lanes` zero coefficients
			// (alternating signs of zero); b's row p is all Inf/NaN.
			p := tc.k - 1 // in the ragged K-block when there is one
			for i := 0; i < lanes && i < tc.m; i++ {
				z := float32(0)
				if i%2 == 1 {
					z = negZero
				}
				a.Data()[p*tc.m+i] = z
			}
			for j := range b.Row(p) {
				b.Row(p)[j] = inf
				if j%2 == 1 {
					b.Row(p)[j] = nan
				}
			}
			want := MatMulATNaive(a, b)
			for i := 0; i < lanes && i < tc.m; i++ {
				for _, v := range want.Row(i) {
					if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
						t.Fatalf("m%d k%d n%d lanes %d: reference row %d saw the Inf/NaN row through a zero coefficient", tc.m, tc.k, tc.n, lanes, i)
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
		{},                           // fast variant, serial heuristics
		{Workers: 4, SerialBelow: 1}, // fast variant, forced parallel
		{Kernel: "fast", Workers: 1}, // fast variant, forced serial
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

		wantIm := Im2ColNaive(x, g)
		wantCol := Col2ImNaive(cols, batch, g)
		wantMP, wantArg := MaxPool2DNaive(x, g)
		wantGap := GlobalAvgPoolNaive(x)
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

			// Backward scatters: same body either path; the forced-parallel
			// leg checks chunk disjointness under -race.
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

		d0, d1, d2, d3 := dst.Clone(), dst.Clone(), dst.Clone(), dst.Clone()
		w0, w1, w2, w3 := dst.Clone(), dst.Clone(), dst.Clone(), dst.Clone()
		a0, a1, a2, a3 := float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())
		saxpy4(d0.Data(), d1.Data(), d2.Data(), d3.Data(), x.Data(), a0, a1, a2, a3)
		saxpy4Generic(w0.Data(), w1.Data(), w2.Data(), w3.Data(), x.Data(), a0, a1, a2, a3)
		assertBitsEqual(t, "saxpy4 row0", d0, w0)
		assertBitsEqual(t, "saxpy4 row1", d1, w1)
		assertBitsEqual(t, "saxpy4 row2", d2, w2)
		assertBitsEqual(t, "saxpy4 row3", d3, w3)
	}
}
