//go:build amd64 && !purego

package tensor

// Dispatch for the rows-in-lanes kernels (rows_amd64.s): the zmm bodies
// where hasAVX512 is set, else the scalar bodies (an AVX2-only host keeps
// them: there is no ymm body). The callers have re-sliced every operand to
// the extent the kernel touches.

//go:noescape
func layerNormAsm(out, xhat, invStd, x, gamma, beta *float32, rows, d int, eps float64)

//go:noescape
func layerNormGradAsm(dx, grad, xhat, invStd, gamma *float32, rows, d int)

//go:noescape
func layerNormParamGradAsm(dgamma, dbeta, grad, xhat *float32, rows, d int)

// first is &s[0], or nil for an empty s: an optional operand's address.
func first(s []float32) *float32 {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

func layerNormBlock(out, xhat, invStd, x, gamma, beta []float32, eps float64) {
	if !hasAVX512 {
		layerNormGeneric(out, xhat, invStd, x, gamma, beta, eps)
		return
	}
	if rows := len(x) / len(gamma); rows > 0 {
		layerNormAsm(&out[0], first(xhat), first(invStd), &x[0], &gamma[0], &beta[0], rows, len(gamma), eps)
	}
}

func layerNormGradBlock(dx, g, xhat, invStd, gamma []float32) {
	if !hasAVX512 {
		layerNormGradGeneric(dx, g, xhat, invStd, gamma)
		return
	}
	if rows := len(g) / len(gamma); rows > 0 {
		layerNormGradAsm(&dx[0], &g[0], &xhat[0], &invStd[0], &gamma[0], rows, len(gamma))
	}
}

func layerNormParamGrad(dgamma, dbeta, g, xhat []float32) {
	if !hasAVX512 {
		layerNormParamGradGeneric(dgamma, dbeta, g, xhat)
		return
	}
	layerNormParamGradAsm(&dgamma[0], &dbeta[0], first(g), first(xhat), len(g)/len(dgamma), len(dgamma))
}
