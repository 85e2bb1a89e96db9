package tensor

import "math"

const geluC = 0.7978845608028654 // sqrt(2/pi)

// The scalar definitions of the transcendental activations: y = act(x),
// d = act′(x). Trained weights and bench/golden depend on these float64
// expression trees bit for bit (internal/layers/activation_test.go holds
// the oracle). They are the generic body of GeluRow / TanhRow and what the
// vector kernels (vecmath_amd64.s) repeat lane by lane.

func geluYD(x float64) (y, d float64) {
	u := geluC * (x + 0.044715*x*x*x)
	th := math.Tanh(u)
	du := geluC * (1 + 3*0.044715*x*x)
	return 0.5 * x * (1 + th), 0.5*(1+th) + 0.5*x*(1-th*th)*du
}

func tanhYD(x float64) (y, d float64) {
	th := math.Tanh(x)
	return th, 1 - th*th
}

// RowYD is the scalar activation row: per element z = src[j] (+ bias[j],
// a float32 add, when bias is non-nil), out[j] = float32(y) and, when keep
// is non-nil, keep[j] = float32(d), stored after out[j]. out and keep may
// alias src or each other.
func RowYD(f func(x float64) (y, d float64), out, keep, src, bias []float32) {
	rowYD(f, out, keep, src, bias, 0)
}

// rowYD is RowYD over the elements from index from on.
func rowYD(f func(x float64) (y, d float64), out, keep, src, bias []float32, from int) {
	for j := from; j < len(src); j++ {
		z := src[j]
		if bias != nil {
			z += bias[j]
		}
		y, d := f(float64(z))
		out[j] = float32(y)
		if keep != nil {
			keep[j] = float32(d)
		}
	}
}

// expSubGeneric is softmax's exponent row: or[j] = float32(e) for
// e = exp(float64(ar[j] − maxv)), each e added to sum in ascending j.
func expSubGeneric(or, ar []float32, maxv float32, sum float64) float64 {
	for j, a := range ar {
		e := math.Exp(float64(a - maxv))
		or[j] = float32(e)
		sum += e
	}
	return sum
}
