package tensor

import "fmt"

// Portable scalar bodies of the SIMD micro-kernels. The assembly variants
// must produce bit-identical results to these: one multiply then one add
// per output element, ascending index order.

func saxpyGeneric(dst, x []float32, a float32) {
	x = x[:len(dst)]
	for i := range dst {
		dst[i] += a * x[i]
	}
}

func vaddGeneric(dst, x []float32) {
	x = x[:len(dst)]
	for i, v := range x {
		dst[i] = addKeepingNaN(dst[i], v)
	}
}

// addKeepingNaN is acc + v where, if both are NaN, v's payload survives, as
// in vaddAsm, whose add takes x first: a NaN v is added to itself, which
// quiets it and keeps its payload whichever operand order the compiler
// gives the add.
func addKeepingNaN(acc, v float32) float32 {
	if v != v {
		return v + v
	}
	return acc + v
}

// tileKernelGeneric is the matmul family's tile body: for r < rows and
// j < n, out[r*os+j] accumulates a[r*si+p*sp]*b[p*n+j] over p in [0,kc) in
// ascending p, one multiply then one add per term; a term whose
// coefficient is exactly zero (either sign) never touches the accumulator.
// The matmuls pass os = n; the attention kernels write a head's columns of
// a wider matrix in place.
func tileKernelGeneric(out []float32, os, rows, n int, a []float32, si, sp int, b []float32, kc int) {
	if rows > 0 && n > 0 && kc > 0 {
		_ = b[kc*n-1] // b's extent, which zero coefficients may leave unread
	}
	for r := 0; r < rows; r++ {
		or := out[r*os : r*os+n]
		for p := 0; p < kc; p++ {
			av := a[r*si+p*sp]
			if av == 0 {
				continue
			}
			saxpyGeneric(or, b[p*n:(p+1)*n], av)
		}
	}
}

// channelRows returns the rows of m as rows of c = len(ch) channels,
// panicking unless they tile m exactly: the channel helpers' shape check.
func channelRows(m, ch []float32) (rows, c int) {
	c = len(ch)
	if c == 0 || len(m)%c != 0 {
		if len(m) == 0 {
			return 0, c
		}
		panic(fmt.Sprintf("tensor: %d elements are not rows of %d channels", len(m), c))
	}
	return len(m) / c, c
}

// The channel helpers' portable bodies: the scalar loops of
// layers.ChannelAffine, rows of c = len(gamma) (or len(dgamma)) channels. The
// float32 conversion keeps each product rounded on its own, so no compiler
// fuses it into the add.

func channelAffineGeneric(dst, x, gamma, beta []float32) {
	c := len(gamma)
	x, beta = x[:len(dst)], beta[:c]
	for r := 0; r < len(dst); r += c {
		dr, xr := dst[r:r+c], x[r:r+c]
		for j, gj := range gamma {
			dr[j] = float32(xr[j]*gj) + beta[j]
		}
	}
}

func channelScaleGeneric(dst, g, gamma []float32) {
	c := len(gamma)
	g = g[:len(dst)]
	for r := 0; r < len(dst); r += c {
		dr, gr := dst[r:r+c], g[r:r+c]
		for j, gj := range gamma {
			dr[j] = gr[j] * gj
		}
	}
}

func channelGradGeneric(dgamma, dbeta, g, x []float32) {
	c := len(dgamma)
	dbeta, x = dbeta[:c], x[:len(g)]
	for r := 0; r < len(g); r += c {
		gr, xr := g[r:r+c], x[r:r+c]
		for j := range dgamma {
			// A NaN accumulator keeps its payload, as the assembly's add
			// (the accumulator its first operand) and the layer's oracle
			// do, whichever operand order the compiler gives the add.
			if d := dgamma[j]; d == d {
				dgamma[j] = d + float32(gr[j]*xr[j])
			}
			// dbeta's add is SumRows' vadd, where the row's NaN survives.
			dbeta[j] = addKeepingNaN(dbeta[j], gr[j])
		}
	}
}

// biasRowsGeneric is AddRowVec's body, row by row: a copy of the source
// row, then vaddGeneric of the bias into it, so it is vaddGeneric's add in
// vaddGeneric's operand order by construction.
func biasRowsGeneric(dst, src, bias []float32) {
	c := len(bias)
	src = src[:len(dst)]
	for r := 0; r < len(dst); r += c {
		copy(dst[r:r+c], src[r:r+c]) // a no-op when dst is src
		vaddGeneric(dst[r:r+c], bias)
	}
}

func reluClampGeneric(dst, src []float32) {
	src = src[:len(dst)]
	for i, z := range src {
		if !(z > 0) { // not z <= 0: NaN clamps to +0 as well
			z = 0
		}
		dst[i] = z
	}
}

func reluMaskGeneric(dst, g, out []float32) {
	g, out = g[:len(dst)], out[:len(dst)]
	for i := range dst {
		var v float32
		if out[i] > 0 {
			v = g[i]
		}
		dst[i] = v
	}
}
