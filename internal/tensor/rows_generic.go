//go:build !amd64 || purego

package tensor

// Non-amd64 builds run the rows kernels' scalar bodies directly.

func layerNormBlock(out, xhat, invStd, x, gamma, beta []float32, eps float64) {
	layerNormGeneric(out, xhat, invStd, x, gamma, beta, eps)
}

func layerNormGradBlock(dx, g, xhat, invStd, gamma []float32) {
	layerNormGradGeneric(dx, g, xhat, invStd, gamma)
}

func layerNormParamGrad(dgamma, dbeta, g, xhat []float32) {
	layerNormParamGradGeneric(dgamma, dbeta, g, xhat)
}
