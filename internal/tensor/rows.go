package tensor

import "math"

// Row kernels whose work is a float64 reduction per row: LayerNorm's
// forward and backward, and softmax (ops.go, vecmath_amd64.go). Each row's
// sum is one chain of dependent adds over ascending j, so on narrow rows
// the scalar loop waits on add latency.
// With AVX-512F the kernels (rows_amd64.s) put eight rows' chains in the
// lanes of a zmm register — the rows-in-lanes layout — and keep every
// lane's order and every element's operation order, so they give the bits
// of the scalar bodies below, which are the portable path, the
// AVX2-only path and the tests' oracles.

// LayerNormRows normalizes every row of x, d = len(gamma) elements each:
// per row, the mean and variance are float64 sums in ascending order,
// inv = float32(1/√(variance + eps)), h = (x − float32(mean))·inv and
// out = h·gamma + beta in float32. xhat (h) and invStd (inv per row) are
// written when non-nil; an eval pass keeps neither. Rows fan out as
// Parallel fans them out; a serial call allocates nothing.
func LayerNormRows(out, xhat, invStd, x, gamma, beta []float32, eps float64) {
	rows, d := channelRows(x, gamma)
	out, beta = out[:len(x)], beta[:d]
	xhat, invStd = span(xhat, 0, len(x)), span(invStd, 0, rows)
	work := len(x) * 8
	if fanOut(Schedule{}, rows, work) == 1 {
		layerNormBlock(out, xhat, invStd, x, gamma, beta, eps)
		return
	}
	parallelFor(Schedule{}, rows, work, func(lo, hi int) {
		o, xs := out[lo*d:hi*d], x[lo*d:hi*d]
		layerNormBlock(o, span(xhat, lo*d, hi*d), span(invStd, lo, hi), xs, gamma, beta, eps)
	})
}

// LayerNormGradRows is LayerNormRows' backward from its xhat and invStd and
// the output gradient g: when dgamma is non-nil, it adds g·xhat into
// dgamma and g into dbeta over the rows in ascending order (serially: all
// rows reduce into one vector); when dx is non-nil, it writes per row
// dx = float32(inv·(dh − mean(dh) − xhat·Σ(dh·xhat)/d)) with
// dh = float64(g)·float64(gamma), the sums in float64 in ascending order.
// The dx rows fan out as Parallel fans them out.
func LayerNormGradRows(dx, dgamma, dbeta, g, xhat, invStd, gamma []float32) {
	rows, d := channelRows(g, gamma)
	xhat, invStd = xhat[:len(g)], invStd[:rows]
	if dgamma != nil {
		layerNormParamGrad(dgamma[:d], dbeta[:d], g, xhat)
	}
	if dx == nil {
		return
	}
	dx = dx[:len(g)]
	work := len(g) * 8
	if fanOut(Schedule{}, rows, work) == 1 {
		layerNormGradBlock(dx, g, xhat, invStd, gamma)
		return
	}
	parallelFor(Schedule{}, rows, work, func(lo, hi int) { // row r of dx reads only row r
		layerNormGradBlock(dx[lo*d:hi*d], g[lo*d:hi*d], xhat[lo*d:hi*d], invStd[lo:hi], gamma)
	})
}

// span is s[lo:hi], or nil for a nil s: an optional output's rows.
func span(s []float32, lo, hi int) []float32 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// layerNormGeneric is LayerNorm's forward row body, kept as the layer had
// it: LayerNormRows over rows of len(gamma).
func layerNormGeneric(out, xhat, invStd, x, gamma, beta []float32, eps float64) {
	d := len(gamma)
	for r := 0; r < len(x)/d; r++ {
		xr, or := x[r*d:(r+1)*d], out[r*d:(r+1)*d]
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
		inv := float32(1 / math.Sqrt(varsum/float64(d)+eps))
		if invStd != nil {
			invStd[r] = inv
		}
		for j := 0; j < d; j++ {
			h := (xr[j] - float32(mean)) * inv
			if xhat != nil {
				xhat[r*d+j] = h
			}
			or[j] = h*gamma[j] + beta[j]
		}
	}
}

// layerNormGradGeneric is LayerNorm's backward dx row body, kept as the
// layer had it.
func layerNormGradGeneric(dx, g, xhat, invStd, gamma []float32) {
	d := len(gamma)
	for r := 0; r < len(g)/d; r++ {
		gr, hr := g[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
		var sumDh, sumDhH float64
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(gamma[j])
			sumDh += dh
			sumDhH += dh * float64(hr[j])
		}
		inv := float64(invStd[r])
		nd := float64(d)
		meanDh := sumDh / nd // loop-invariant: the same quotient per element
		dr := dx[r*d : (r+1)*d]
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(gamma[j])
			dr[j] = float32(inv * (dh - meanDh - float64(hr[j])*sumDhH/nd))
		}
	}
}

// layerNormParamGradGeneric is LayerNorm's dγ/dβ reduction, kept as the
// layer had it: rows in ascending order.
func layerNormParamGradGeneric(dgamma, dbeta, g, xhat []float32) {
	d := len(dgamma)
	for r := 0; r < len(g)/d; r++ {
		gr, hr := g[r*d:(r+1)*d], xhat[r*d:(r+1)*d]
		for j := 0; j < d; j++ {
			dgamma[j] += gr[j] * hr[j]
			dbeta[j] += gr[j]
		}
	}
}
