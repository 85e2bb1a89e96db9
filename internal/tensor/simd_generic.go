//go:build !amd64

package tensor

// Non-amd64 builds run the portable scalar micro-kernel bodies directly.

func saxpy(dst, x []float32, a float32) { saxpyGeneric(dst, x, a) }

// vadd computes dst[i] += x[i] for i in [0, len(dst)). dst may alias x.
func vadd(dst, x []float32) { vaddGeneric(dst, x) }

// tileKernel ignores dense: off amd64 the portable body is the only one.
func tileKernel(out []float32, os, rows, n int, a []float32, si, sp int, b []float32, kc int, dense bool) {
	tileKernelGeneric(out, os, rows, n, a, si, sp, b, kc)
}

// denseB is false without a dense body to choose, so callers scan nothing.
func denseB(b []float32) bool { return false }

// ChannelAffineRows writes dst[r*c+j] = x[r*c+j]*gamma[j] + beta[j] for
// every row r of dst, c = len(gamma). dst may alias x.
func ChannelAffineRows(dst, x, gamma, beta []float32) {
	channelRows(dst, gamma)
	channelAffineGeneric(dst, x, gamma, beta)
}

// ChannelScaleRows writes dst[r*c+j] = g[r*c+j]*gamma[j] for every row r
// of dst, c = len(gamma). dst may alias g.
func ChannelScaleRows(dst, g, gamma []float32) {
	channelRows(dst, gamma)
	channelScaleGeneric(dst, g, gamma)
}

// ChannelGradRows adds g[r*c+j]*x[r*c+j] into dgamma[j] and g[r*c+j] into
// dbeta[j] for every row r of g, c = len(dgamma), rows in ascending order.
func ChannelGradRows(dgamma, dbeta, g, x []float32) {
	channelRows(g, dgamma)
	channelGradGeneric(dgamma, dbeta, g, x)
}

// BiasRows writes dst[r*c+j] = src[r*c+j] + bias[j] for every row r of
// dst, c = len(bias): AddRowVec's add. dst may alias src.
func BiasRows(dst, src, bias []float32) {
	channelRows(dst, bias)
	biasRowsGeneric(dst, src, bias)
}

// ReLUClamp writes dst[i] = src[i] where src[i] > 0 and +0 elsewhere (NaN
// and -0 included), for i in [0, len(dst)). dst may alias src.
func ReLUClamp(dst, src []float32) { reluClampGeneric(dst, src) }

// ReLUMask writes dst[i] = g[i] where out[i] > 0 and +0 elsewhere, for i in
// [0, len(dst)): ReLU's backward from its output. dst may alias g.
func ReLUMask(dst, g, out []float32) { reluMaskGeneric(dst, g, out) }
