//go:build !amd64

package tensor

// Non-amd64 builds run the scalar definitions directly.

// GeluRow is RowYD over geluYD.
func GeluRow(out, keep, src, bias []float32) {
	RowYD(geluYD, out, keep, src, bias)
}

// TanhRow is RowYD over tanhYD.
func TanhRow(out, keep, src, bias []float32) {
	RowYD(tanhYD, out, keep, src, bias)
}

func expSubRow(or, ar []float32, maxv float32) float64 { return expSubGeneric(or, ar, maxv, 0) }

func softmaxRows(dst, src []float32, c int, scale float32) {
	softmaxRowsGeneric(dst, src, c, scale)
}
