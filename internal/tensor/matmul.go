package tensor

import "fmt"

// The matmul family dispatches on the tuned schedule table (see
// schedule.go): each public kernel resolves a Schedule for its shape and
// runs either the blocked SIMD variant (matmul_blocked.go) or the seed
// scalar reference. Both are bit-identical: every output element
// accumulates its terms in ascending p with one multiply then one add per
// term, and terms with an exact-zero a-coefficient are skipped — the
// sparsity fast path the seed MatMul had, now uniform across the family
// (MatMulBT historically computed unskipped dot products; it shares the
// skip semantics since the packed variant landed, so frozen-layer zero
// gradients short-circuit in backward passes too).

// MatMul computes the matrix product of a's 2-D view [m,k] and b's 2-D view
// [k,n], returning an [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch [%d,%d]x[%d,%d]", m, k, k2, n))
	}
	out := NewFrom2(a, b, m, n)
	sch := scheduleFor(OpMatMul, [3]int{m, k, n})
	if sch.Kernel == "naive" {
		parallelFor(sch, m, m*k*n, func(lo, hi int) {
			matMulRange(out, a, b, lo, hi)
		})
		return out
	}
	matMulBlocked(out, a, b, k, 1, sch)
	return out
}

// MatMulNaive is the seed scalar reference for MatMul: the row-axpy triple
// loop, single-threaded. It is the autotuner's baseline leg and the
// bit-identity oracle for the blocked variant.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulNaive inner dimension mismatch [%d,%d]x[%d,%d]", m, k, k2, n))
	}
	out := NewFrom2(a, b, m, n)
	matMulRange(out, a, b, 0, m)
	return out
}

// matMulRange runs the seed MatMul body over output rows [lo,hi).
func matMulRange(out, a, b *Tensor, lo, hi int) {
	k, n := a.Cols(), b.Cols()
	for i := lo; i < hi; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ai[p]
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if av == 0 {
				continue
			}
			bp := b.data[p*n : (p+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
}

// MatMulBT computes a × bᵀ where a is [m,k] and b is [n,k], returning [m,n].
// It avoids materializing the transpose and is used by backward passes.
func MatMulBT(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBT inner dimension mismatch [%d,%d]x[%d,%d]T", m, k, n, k2))
	}
	out := NewFrom2(a, b, m, n)
	sch := scheduleFor(OpMatMulBT, [3]int{m, k, n})
	if sch.Kernel == "naive" {
		parallelFor(sch, m, m*k*n, func(lo, hi int) {
			matMulBTRange(out, a, b, lo, hi)
		})
		return out
	}
	matMulBTPacked(out, a, b, sch)
	return out
}

// MatMulBTNaive is the scalar reference for MatMulBT: per-element dot
// products in ascending p with the family's exact-zero skip on a's
// coefficients, single-threaded.
func MatMulBTNaive(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	n, k2 := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulBTNaive inner dimension mismatch [%d,%d]x[%d,%d]T", m, k, n, k2))
	}
	out := NewFrom2(a, b, m, n)
	matMulBTRange(out, a, b, 0, m)
	return out
}

// matMulBTRange runs the scalar MatMulBT body over output rows [lo,hi).
func matMulBTRange(out, a, b *Tensor, lo, hi int) {
	k, n := a.Cols(), b.Rows()
	for i := lo; i < hi; i++ {
		ai := a.data[i*k : (i+1)*k]
		oi := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := b.data[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				av := ai[p]
				//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
				if av == 0 {
					continue
				}
				s += av * bj[p]
			}
			oi[j] = s
		}
	}
}

// MatMulAT computes aᵀ × b where a is [k,m] and b is [k,n], returning [m,n].
// It accumulates over a's rows and is used to form weight gradients.
func MatMulAT(a, b *Tensor) *Tensor {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulAT inner dimension mismatch [%d,%d]T x [%d,%d]", k, m, k2, n))
	}
	out := NewFrom2(a, b, m, n)
	sch := scheduleFor(OpMatMulAT, [3]int{m, k, n})
	if sch.Kernel == "naive" {
		parallelFor(sch, m, m*k*n, func(lo, hi int) {
			matMulATRange(out, a, b, lo, hi)
		})
		return out
	}
	matMulBlocked(out, a, b, 1, m, sch)
	return out
}

// MatMulATNaive is the seed scalar reference for MatMulAT, single-threaded.
func MatMulATNaive(a, b *Tensor) *Tensor {
	k, m := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulATNaive inner dimension mismatch [%d,%d]T x [%d,%d]", k, m, k2, n))
	}
	out := NewFrom2(a, b, m, n)
	matMulATRange(out, a, b, 0, m)
	return out
}

// matMulATRange runs the seed MatMulAT body over output columns-of-a
// (= output rows) [lo,hi).
func matMulATRange(out, a, b *Tensor, lo, hi int) {
	k, m, n := a.Rows(), a.Cols(), b.Cols()
	for p := 0; p < k; p++ {
		ap := a.data[p*m : (p+1)*m]
		bp := b.data[p*n : (p+1)*n]
		for i := lo; i < hi; i++ {
			av := ap[i]
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if av == 0 {
				continue
			}
			oi := out.data[i*n : (i+1)*n]
			for j := range bp {
				oi[j] += av * bp[j]
			}
		}
	}
}
