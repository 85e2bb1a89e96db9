package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// layerNormScalar is layers.LayerNorm's forward row callback before the
// rows-in-lanes kernel, verbatim but for taking slices: the oracle of
// LayerNormRows.
func layerNormScalar(out, xhat, invStd, x, g, b []float32, d int) {
	const lnEps = 1e-5
	for r := 0; r < len(x)/d; r++ {
		xr, or, hr := x[r*d:(r+1)*d], out[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(d)
		var varsum float64
		for _, v := range xr {
			dv := float64(v) - mean
			varsum += dv * dv
		}
		inv := float32(1 / math.Sqrt(varsum/float64(d)+lnEps))
		invStd[r] = inv
		for j := 0; j < d; j++ {
			h := (xr[j] - float32(mean)) * inv
			hr[j] = h
			or[j] = h*g[j] + b[j]
		}
	}
}

// layerNormGradScalar is layers.LayerNorm's backward before the
// rows-in-lanes kernel, verbatim but for taking slices: the dγ/dβ loop
// (when dg is non-nil), then the dx rows (when dx is non-nil).
func layerNormGradScalar(dx, dg, db, gradOut, xhat, invStd, g []float32, d int) {
	rows := len(gradOut) / d
	if dg != nil {
		for r := 0; r < rows; r++ {
			gr, hr := gradOut[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
			for j := 0; j < d; j++ {
				dg[j] += gr[j] * hr[j]
				db[j] += gr[j]
			}
		}
	}
	if dx == nil {
		return
	}
	for r := 0; r < rows; r++ {
		gr, hr := gradOut[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
		var sumDh, sumDhH float64
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(g[j])
			sumDh += dh
			sumDhH += dh * float64(hr[j])
		}
		inv := float64(invStd[r])
		nd := float64(d)
		meanDh := sumDh / nd
		dr := dx[r*d : (r+1)*d]
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(g[j])
			dr[j] = float32(inv * (dh - meanDh - float64(hr[j])*sumDhH/nd))
		}
	}
}

// specialRows returns rows×d values, row r of kind (r+shift) mod 10:
// normal draws; a constant row (variance 0); zeros of both signs; one
// ±0 among draws; one NaN (in column 0, of two payloads on alternate
// such rows); one +Inf; +Inf and -Inf; one -Inf; values near
// ±MaxFloat32; draws around 1e4 (a mean far from 0). A row holds at most
// one NaN payload and never a NaN beside an Inf pair, so a row's compiled
// scalar adds, whose operand order a -race build may swap, never meet two
// payloads; the column sums over rows (dγ, dβ) do, where the compiled
// order is the same in both builds.
func specialRows(rng *rand.Rand, rows, d, shift int) []float32 {
	x := RandNormal(rng, 2, rows, d).Data()
	inf := float32(math.Inf(1))
	for r := 0; r < rows; r++ {
		row := x[r*d : (r+1)*d]
		at := rng.Intn(d)
		switch (r + shift) % 10 {
		case 1:
			for j := range row {
				row[j] = 1.25
			}
		case 2:
			for j := range row {
				row[j] = float32(math.Copysign(0, float64(j%2)-0.5))
			}
		case 3:
			row[at] = float32(math.Copysign(0, -1))
		case 4: // column 0, two payloads by turns: they meet in dγ and dβ
			row[0] = math.Float32frombits(0x7fc00000 | uint32(r/10%2)*0xb)
		case 5:
			row[at] = inf
		case 6:
			row[at], row[(at+1)%d] = inf, -inf
		case 7:
			row[at] = -inf
		case 8:
			for j := range row {
				row[j] = math.MaxFloat32 * float32(0.5+rng.Float64()/2) * float32(1-2*(j%2))
			}
		case 9:
			for j := range row {
				row[j] += 1e4
			}
		}
	}
	return x
}

func requireBits(t *testing.T, label string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %08x, scalar %08x", label, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLayerNormForwardMatchesScalar holds LayerNormRows to the layer's
// scalar forward, kept verbatim above: out, xhat and invStd bit for bit,
// and out alone in an eval call, at widths 1-67 and row counts 1-19 (full
// and partial 8-row blocks, column tails), over specialRows, at worker
// caps 1 and 2; a 384×32 call is past the fan-out threshold, so under
// -race two chunks run at once and a write they shared would be reported.
func TestLayerNormForwardMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	t.Cleanup(func() { SetMaxWorkers(0) })
	check := func(label string, rows, d int) {
		t.Helper()
		x := specialRows(rng, rows, d, rows+d)
		g, b := RandNormal(rng, 1, d).Data(), RandNormal(rng, 0.5, d).Data()
		n := rows * d
		want, wantH, wantInv := make([]float32, n), make([]float32, n), make([]float32, rows)
		layerNormScalar(want, wantH, wantInv, x, g, b, d)
		out, h, inv := make([]float32, n), make([]float32, n), make([]float32, rows)
		LayerNormRows(out, h, inv, x, g, b, 1e-5)
		requireBits(t, label+" out", out, want)
		requireBits(t, label+" xhat", h, wantH)
		requireBits(t, label+" invStd", inv, wantInv)
		eval := make([]float32, n)
		LayerNormRows(eval, nil, nil, x, g, b, 1e-5)
		requireBits(t, label+" eval out", eval, want)
	}
	for _, workers := range []int{1, 2} {
		SetMaxWorkers(workers)
		for d := 1; d <= 67; d++ {
			for rows := 1; rows <= 19; rows++ {
				check(fmt.Sprintf("workers %d rows %d d %d", workers, rows, d), rows, d)
			}
		}
		check(fmt.Sprintf("workers %d fan-out", workers), 384, 32)
	}
}

// TestLayerNormGradMatchesScalar holds LayerNormGradRows to the layer's
// scalar backward, kept verbatim above — dx, dγ and dβ bit for bit, for
// every combination of the two outputs — at widths 1-67 and row counts
// 1-19, with specialRows in the gradient and in xhat (different rows) and
// a NaN, an Inf and a zero among the inverse deviations, at worker caps 1
// and 2 and past the fan-out threshold. dγ and dβ accumulate onto nonzero
// values; where NaNs of two payloads meet in them, the operand order
// shows.
func TestLayerNormGradMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	t.Cleanup(func() { SetMaxWorkers(0) })
	check := func(label string, rows, d int) {
		t.Helper()
		n := rows * d
		grad, xhat := specialRows(rng, rows, d, 0), specialRows(rng, rows, d, 5)
		invStd := RandNormal(rng, 1, rows).Data()
		for r := range invStd {
			if r%10 == 2 || r%10 == 7 { // rows whose grad and xhat are finite
				invStd[r] = []float32{float32(math.NaN()), float32(math.Inf(1)), 0}[r%3]
			}
		}
		g := RandNormal(rng, 1, d).Data()
		acc := RandNormal(rng, 1, 2, d).Data()
		for _, need := range [][2]bool{{true, true}, {true, false}, {false, true}} {
			var dx, wantDx, dg, db, wantDg, wantDb []float32
			if need[0] {
				dx, wantDx = make([]float32, n), make([]float32, n)
			}
			if need[1] {
				dg, db = append([]float32(nil), acc[:d]...), append([]float32(nil), acc[d:]...)
				wantDg, wantDb = append([]float32(nil), dg...), append([]float32(nil), db...)
			}
			layerNormGradScalar(wantDx, wantDg, wantDb, grad, xhat, invStd, g, d)
			LayerNormGradRows(dx, dg, db, grad, xhat, invStd, g)
			l := fmt.Sprintf("%s need %v", label, need)
			requireBits(t, l+" dx", dx, wantDx)
			requireBits(t, l+" dgamma", dg, wantDg)
			requireBits(t, l+" dbeta", db, wantDb)
		}
	}
	for _, workers := range []int{1, 2} {
		SetMaxWorkers(workers)
		for d := 1; d <= 67; d++ {
			for rows := 1; rows <= 19; rows++ {
				check(fmt.Sprintf("workers %d rows %d d %d", workers, rows, d), rows, d)
			}
		}
		check(fmt.Sprintf("workers %d fan-out", workers), 384, 32)
	}
}
