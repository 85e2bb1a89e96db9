package tensor

// Blocked, schedule-parameterized matmul variants. The strategy: keep the
// seed's per-output-element accumulation chain (ascending p, one multiply
// then one add per term, exact-zero a-coefficients skipped) but feed it
// through the SIMD micro-kernels and reorganize the loops for locality:
//
//   - TileM groups output rows so each load of a b-panel row updates
//     several output rows (saxpy4 shares one x load across four
//     accumulator rows);
//   - TileK blocks the reduction dimension so the b panel in flight stays
//     cache-resident across the whole row sweep (and, for MatMulBT, so the
//     transposed panel can be packed once into a contiguous slab).
//
// Loop blocking never changes which terms reach an output element or in
// what order — each element still sees its terms in ascending p — so every
// variant is bit-identical to the naive reference for any tile sizes.

// defaultTileM is the output-row block fed to the multi-row micro-kernel.
const defaultTileM = 4

// defaultTileK is the reduction-panel depth used when the schedule does
// not specify one; 256 float32 rows of a moderate n keep the panel within
// L2 while amortizing MatMulBT's packing pass.
const defaultTileK = 256

// matMulBlocked computes out += A×b over row blocks, reading b's rows
// directly (they are already contiguous panels). A[i][p] is
// a.data[i*si+p*sp]: strides (k, 1) read a as the [m,k] left operand of
// MatMul, (1, m) read a [k,m] tensor as its transpose — MatMulAT, whose
// four coefficients per p are then adjacent.
func matMulBlocked(out, a, b *Tensor, si, sp int, sch Schedule) {
	m, k, n := out.Rows(), b.Rows(), b.Cols()
	tm := sch.TileM
	if tm < 1 {
		tm = defaultTileM
	}
	tk := sch.TileK
	if tk < 1 || tk > k {
		tk = k
	}
	parallelFor(sch, m, m*k*n, func(lo, hi int) {
		for kk := 0; kk < k; kk += tk {
			ke := kk + tk
			if ke > k {
				ke = k
			}
			for i0 := lo; i0 < hi; i0 += tm {
				i1 := i0 + tm
				if i1 > hi {
					i1 = hi
				}
				matMulTile(out, a.data, si, sp, b.data, 0, i0, i1, kk, ke, n, tm)
			}
		}
	})
}

// matMulBTPacked computes a × bᵀ by packing K-blocks of bᵀ into a
// contiguous [tk, n] slab, then running the same row-axpy micro-kernels
// against the slab. Packing turns MatMulBT's column-strided b accesses
// into the contiguous panels MatMul enjoys and gives the family's
// exact-zero skip to the BT form for free.
func matMulBTPacked(out, a, b *Tensor, sch Schedule) {
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	tm := sch.TileM
	if tm < 1 {
		tm = defaultTileM
	}
	tk := sch.TileK
	if tk < 1 {
		tk = defaultTileK
	}
	if tk > k {
		tk = k
	}
	// One packed slab reused across K-blocks; derived from the operands'
	// allocator so step-scoped callers stay arena-pooled.
	pack := NewFrom2(a, b, tk, n)
	for kk := 0; kk < k; kk += tk {
		ke := kk + tk
		if ke > k {
			ke = k
		}
		// pack[p-kk][j] = b[j][p]: contiguous writes, strided reads.
		for p := kk; p < ke; p++ {
			pr := pack.data[(p-kk)*n : (p-kk+1)*n]
			for j := range pr {
				pr[j] = b.data[j*k+p]
			}
		}
		parallelFor(sch, m, m*(ke-kk)*n, func(lo, hi int) {
			for i0 := lo; i0 < hi; i0 += tm {
				i1 := i0 + tm
				if i1 > hi {
					i1 = hi
				}
				matMulTile(out, a.data, k, 1, pack.data, kk, i0, i1, kk, ke, n, tm)
			}
		})
	}
}

// matMulTile accumulates out rows [i0,i1) over reduction terms [kk,ke),
// with row i's coefficient for term p at ad[i*si+p*sp] and b-panel rows
// read from bdata at (p-pOff)*n. Rows are processed four at a time through
// saxpy4 when the row block and tile allow; a p-term is applied via saxpy4
// only when all four coefficients are nonzero — otherwise per-row saxpy
// preserves the exact-zero skip (0×Inf, 0×NaN and -0 accumulation would
// otherwise diverge from the reference).
func matMulTile(out *Tensor, ad []float32, si, sp int, bdata []float32, pOff, i0, i1, kk, ke, n, tm int) {
	i := i0
	for ; tm >= 4 && i+4 <= i1; i += 4 {
		o0 := out.data[i*n : (i+1)*n]
		o1 := out.data[(i+1)*n : (i+2)*n]
		o2 := out.data[(i+2)*n : (i+3)*n]
		o3 := out.data[(i+3)*n : (i+4)*n]
		q := i*si + kk*sp
		for p := kk; p < ke; p, q = p+1, q+sp {
			a0, a1, a2, a3 := ad[q], ad[q+si], ad[q+2*si], ad[q+3*si]
			bp := bdata[(p-pOff)*n : (p-pOff+1)*n]
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
				saxpy4(o0, o1, o2, o3, bp, a0, a1, a2, a3)
				continue
			}
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if a0 != 0 {
				saxpy(o0, bp, a0)
			}
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if a1 != 0 {
				saxpy(o1, bp, a1)
			}
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if a2 != 0 {
				saxpy(o2, bp, a2)
			}
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if a3 != 0 {
				saxpy(o3, bp, a3)
			}
		}
	}
	for ; i < i1; i++ {
		oi := out.data[i*n : (i+1)*n]
		for p := kk; p < ke; p++ {
			av := ad[i*si+p*sp]
			//lint:ignore floateq exact-zero skip: sparsity fast path, not a tolerance check
			if av == 0 {
				continue
			}
			saxpy(oi, bdata[(p-pOff)*n:(p-pOff+1)*n], av)
		}
	}
}
