package tensor

import "fmt"

// The matmul family has one body per op, parameterized by the Schedule its
// shape resolves to (see schedule.go). The strategy: keep the seed's
// per-output-element accumulation chain (ascending p, one multiply then one
// add per term, exact-zero a-coefficients skipped — the sparsity rule the
// seed MatMul had, uniform across the family, so a 0×Inf or 0×NaN product
// never reaches an output) but run it in a register tile and reorganize the
// loops for locality:
//
//   - tileKernel (simd_amd64.s; portable body in simd.go) loads a 4-row ×
//     16/8/4/1-column block of out into registers, runs a whole K-block
//     over it and stores it once, so an output element is loaded and
//     stored once per K-block instead of once per term, and each load of a
//     b-panel row feeds four output rows. TileM is the row block handed to
//     it; rows past a multiple of four go through the same body one at a
//     time. The 4-column block (XMM) keeps n = 12, the attention score
//     width at BERT-mini's sequence length, off the single-column path.
//   - TileK blocks the reduction dimension so the b panel in flight stays
//     cache-resident across the whole row sweep (and, for MatMulBT, so the
//     transposed panel can be packed once into a contiguous slab).
//
// The assembly tile body has no skip at all; it runs where b is finite.
// Every output starts at +0 — a zero-filled tensor from New or a scope's
// Get, or a scratch slab the caller clears — and that is an obligation on
// every caller of tileKernel: under round-to-nearest a sum is -0 only when
// both addends are -0, so an accumulator that starts at +0 is never -0.
// With a finite b, a zero coefficient of either sign adds 0·b = ±0, and
// x + (±0) is x bit for bit for every x that is not -0 — a NaN keeps its
// payload, an infinity stays — so the term leaves every bit as the skip
// would. With an infinite or NaN b a zero coefficient would add NaN, so
// such a call runs tileKernelGeneric, the portable body with the skip and
// the tests' oracle. One vector scan (denseB) decides, once per b operand
// per call, never per tile: the weight for MatMul and MatMulBT, dz for
// MatMulAT; the attention kernels scan theirs once per call. Off amd64
// and without AVX2 the portable body is the only one and nothing is
// scanned. A NaN coefficient is not a zero and turns its row NaN.
//
// Each term is one multiply then one add, never a fused multiply-add, which
// rounds once where the seed loop rounds twice. The multiply takes
// (b, coefficient) and the add (product, accumulator), as saxpyAsm does:
// x86 returns its first NaN operand, so when two NaNs meet the payload that
// survives is the one saxpy would leave.
//
// Loop blocking never changes which terms reach an output element or in
// what order — each element still sees its terms in ascending p — so every
// schedule is bit-identical to the seed scalar loops for any tile sizes
// (the tests keep those loops as their oracle).

// defaultTileM is the output-row block fed to the tile kernel.
const defaultTileM = 4

// defaultTileK is the reduction-panel depth used when the schedule does
// not specify one; 256 float32 rows of a moderate n keep the panel within
// L2 while amortizing MatMulBT's packing pass.
const defaultTileK = 256

// MatMul computes the matrix product of a's 2-D view [m,k] and b's 2-D view
// [k,n], returning an [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch [%d,%d]x[%d,%d]", m, k, k2, n))
	}
	out := NewFrom2(a, b, m, n)
	matMulBlocked(out, a, b, k, 1, scheduleFor(OpMatMul, [3]int{m, k, n}))
	return out
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
	matMulBTPacked(out, a, b, scheduleFor(OpMatMulBT, [3]int{m, k, n}))
	return out
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
	matMulBlocked(out, a, b, 1, m, scheduleFor(OpMatMulAT, [3]int{m, k, n}))
	return out
}

// tileM is the schedule's output-row block clamped to [1, m]: a tile taller
// than the matrix is the whole matrix, and i0+tm cannot overflow.
func tileM(sch Schedule, m int) int {
	tm := sch.TileM
	if tm < 1 {
		tm = defaultTileM
	}
	return max(1, min(tm, m))
}

// matMulBlocked computes out += A×b over row blocks, reading b's rows
// directly (they are already contiguous panels). A[i][p] is
// a.data[i*si+p*sp]: strides (k, 1) read a as the [m,k] left operand of
// MatMul, (1, m) read a [k,m] tensor as its transpose — MatMulAT, whose
// four coefficients per p are then adjacent.
func matMulBlocked(out, a, b *Tensor, si, sp int, sch Schedule) {
	m, k, n := out.Rows(), b.Rows(), b.Cols()
	tm := tileM(sch, m)
	tk := sch.TileK
	if tk < 1 || tk > k {
		tk = k
	}
	dense := denseB(b.data)
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
				matMulTile(out, a.data, si, sp, b.data, 0, i0, i1, kk, ke, n, dense)
			}
		}
	})
}

// matMulBTPacked computes a × bᵀ by packing K-blocks of bᵀ into a
// contiguous [tk, n] slab, then running the same tile kernel against the
// slab. Packing turns MatMulBT's column-strided b accesses into the
// contiguous panels MatMul enjoys, and gives the BT form MatMul's tile
// kernel and its choice of body by the finiteness of b.
func matMulBTPacked(out, a, b *Tensor, sch Schedule) {
	m, k := a.Rows(), a.Cols()
	n := b.Rows()
	tm := tileM(sch, m)
	tk := sch.TileK
	if tk < 1 {
		tk = defaultTileK
	}
	if tk > k {
		tk = k
	}
	// The packed slab holds b's elements, so b's scan speaks for it.
	dense := denseB(b.data)
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
				matMulTile(out, a.data, k, 1, pack.data, kk, i0, i1, kk, ke, n, dense)
			}
		})
	}
}

// matMulTile accumulates out rows [i0,i1) over reduction terms [kk,ke),
// with row i's coefficient for term p at ad[i*si+p*sp] and b-panel rows
// read from bdata at (p-pOff)*n: one tileKernel call over the block's
// sub-slices, dense as the caller's scan of b decided.
func matMulTile(out *Tensor, ad []float32, si, sp int, bdata []float32, pOff, i0, i1, kk, ke, n int, dense bool) {
	tileKernel(out.data[i0*n:i1*n], n, i1-i0, n, ad[i0*si+kk*sp:], si, sp, bdata[(kk-pOff)*n:(ke-pOff)*n], ke-kk, dense)
}
