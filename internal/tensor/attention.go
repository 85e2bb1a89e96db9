package tensor

import "fmt"

// The fused attention kernels run multi-head scaled-dot-product attention
// over projections laid out [batch*seq, heads*dh] — head h of batch element
// b is the seq×dh block at rows b*seq.., columns h*dh.. — with one fan-out
// over the batch×heads (b, h) pairs. A pair reads its Q/K/V head in place as
// the tile kernel's strided A operand (row stride dim), packs each B panel
// into its chunk's scratch, and writes its softmax slab and its head's
// columns of the outputs directly (out row stride dim).
//
// Bits: a pair never spans two chunks, and every element sees the
// operations the per-head chain of public kernels gives it, in the same
// order — MatMulBT for the scores, the scale multiply and SoftmaxRowsInto's
// rows (softmaxRows takes the multiply into its slab kernel), MatMul /
// MatMulAT / MatMulBT for the products and softmax's backward row body —
// each product accumulated by the same tile kernel from +0 over ascending
// p with the zero-skipped A coefficient. So the outputs equal that chain
// bit for bit on any worker count (the tests keep the chain as their
// oracle). Whether a product runs the tile kernel's dense
// body changes no bit either: q and dctx are scanned once per call, each
// pair's softmax slab (and in backward its ds slab) once per pair.

// Attention returns the softmax weights attn [batch, heads, seq, seq] and
// the concatenated head outputs ctx [batch*seq, heads*dh] of projections
// q, k, v [batch*seq, heads*dh]: per pair, attn = softmax(scale·q kᵀ) and
// ctx's head columns = attn v.
func Attention(q, k, v *Tensor, batch, heads int, scale float32) (attn, ctx *Tensor) {
	seq, dim, dh := attentionDims("Attention", q, batch, heads, k, v)
	attn = NewFrom(q, batch, heads, seq, seq)
	ctx = NewFrom(q, batch*seq, dim)
	pairs := batch * heads
	denseK, denseV := denseB(k.data), denseB(v.data)
	pairFanOut(q, pairs, seq*dh, pairs*seq*seq*(4*dh+8), func(pack []float32, lo, hi int) {
		for pr := lo; pr < hi; pr++ {
			off := pr/heads*seq*dim + pr%heads*dh // the head's first element
			a := attn.data[pr*seq*seq : (pr+1)*seq*seq]
			packHeadT(pack, k.data[off:], seq, dh, dim)
			tileKernel(a, seq, seq, seq, q.data[off:], dim, 1, pack, dh, denseK)
			softmaxRows(a, a, seq, scale)
			packHead(pack, v.data[off:], seq, dh, dim)
			tileKernel(ctx.data[off:], dim, seq, dh, a, seq, 1, pack, seq, denseV)
		}
	})
	return attn, ctx
}

// AttentionBackward returns the gradients dq, dk, dv [batch*seq, heads*dh]
// of Attention's q, k, v given its attn and the gradient dctx of its ctx:
// per pair, dv = attnᵀ dctx, ds = scale · softmax′(attn, dctx vᵀ),
// dq = ds k and dk = dsᵀ q, each on the head's columns.
func AttentionBackward(q, k, v, attn, dctx *Tensor, scale float32) (dq, dk, dv *Tensor) {
	if attn.Rank() != 4 {
		panic(fmt.Sprintf("tensor: AttentionBackward attn shape %v, want [batch, heads, seq, seq]", attn.shape))
	}
	batch, heads := attn.Dim(0), attn.Dim(1)
	seq, dim, dh := attentionDims("AttentionBackward", q, batch, heads, k, v, dctx)
	if attn.Dim(2) != seq || attn.Dim(3) != seq {
		panic(fmt.Sprintf("tensor: AttentionBackward attn shape %v for seq %d", attn.shape, seq))
	}
	dq = NewFrom(dctx, batch*seq, dim)
	dk = NewFrom(dctx, batch*seq, dim)
	dv = NewFrom(dctx, batch*seq, dim)
	pairs := batch * heads
	denseDctx, denseV, denseK, denseQ := denseB(dctx.data), denseB(v.data), denseB(k.data), denseB(q.data)
	pairFanOut(dctx, pairs, seq*dh+seq*seq, pairs*seq*seq*(8*dh+4), func(s []float32, lo, hi int) {
		pack, ds := s[:seq*dh], s[seq*dh:]
		for pr := lo; pr < hi; pr++ {
			off := pr/heads*seq*dim + pr%heads*dh
			a := attn.data[pr*seq*seq : (pr+1)*seq*seq]
			packHead(pack, dctx.data[off:], seq, dh, dim)
			tileKernel(dv.data[off:], dim, seq, dh, a, 1, seq, pack, seq, denseDctx)
			clear(ds)
			packHeadT(pack, v.data[off:], seq, dh, dim)
			tileKernel(ds, seq, seq, seq, dctx.data[off:], dim, 1, pack, dh, denseV)
			for r := 0; r < seq; r++ {
				yr, gr := a[r*seq:(r+1)*seq], ds[r*seq:(r+1)*seq]
				var dot float64
				for j := range yr {
					dot += float64(yr[j] * gr[j])
				}
				d := float32(dot)
				for j := range gr {
					gr[j] = float32(yr[j]*(gr[j]-d)) * scale
				}
			}
			packHead(pack, k.data[off:], seq, dh, dim)
			tileKernel(dq.data[off:], dim, seq, dh, ds, seq, 1, pack, seq, denseK)
			packHead(pack, q.data[off:], seq, dh, dim)
			tileKernel(dk.data[off:], dim, seq, dh, ds, 1, seq, pack, seq, denseQ)
		}
	})
	return dq, dk, dv
}

// attentionDims checks that q and every other operand are the same
// [batch*seq, heads*dh] matrix shape and returns seq, dim and dh.
func attentionDims(op string, q *Tensor, batch, heads int, others ...*Tensor) (seq, dim, dh int) {
	rows, dim := q.Rows(), q.Cols()
	if batch <= 0 || heads <= 0 || rows%batch != 0 || dim%heads != 0 {
		panic(fmt.Sprintf("tensor: %s of a [%d,%d] projection over batch %d, heads %d", op, rows, dim, batch, heads))
	}
	for _, t := range others {
		if t.Rows() != rows || t.Cols() != dim {
			panic(fmt.Sprintf("tensor: %s operand [%d,%d], want [%d,%d]", op, t.Rows(), t.Cols(), rows, dim))
		}
	}
	return rows / batch, dim, dim / heads
}

// pairFanOut runs fn over the pairs [0,n) in parallelFor chunks, handing
// each chunk its own per-float slot of one scratch slab. The slab comes
// from src's scope before the fan-out — a scope has one owner, so no chunk
// may Get from it — and goes back to it after. The chunks are cut exactly
// as fanOut decided when sizing the slab, so slot lo/chunk is distinct per
// chunk and below workers.
func pairFanOut(src *Tensor, n, per, work int, fn func(s []float32, lo, hi int)) {
	if n == 0 {
		return
	}
	workers := fanOut(Schedule{}, n, work)
	scratch := NewFrom(src, workers*per)
	chunk := (n + workers - 1) / workers
	parallelFor(Schedule{Workers: workers}, n, work, func(lo, hi int) {
		slot := lo / chunk * per
		fn(scratch.data[slot:slot+per], lo, hi)
	})
	scratch.scope.Free(scratch)
}

// packHead copies the seq×dh head block at m (row stride dim) into the
// contiguous [seq, dh] panel dst: a tile-kernel B operand.
func packHead(dst, m []float32, seq, dh, dim int) {
	for s := 0; s < seq; s++ {
		copy(dst[s*dh:(s+1)*dh], m[s*dim:s*dim+dh])
	}
}

// packHeadT copies the transpose of the seq×dh head block at m (row stride
// dim) into the contiguous [dh, seq] panel dst: dst[p][j] = m[j][p], the B
// operand of a product with the head's transpose, as MatMulBT packs it.
func packHeadT(dst, m []float32, seq, dh, dim int) {
	for p := 0; p < dh; p++ {
		dr := dst[p*seq : (p+1)*seq]
		for j := range dr {
			dr[j] = m[j*dim+p]
		}
	}
}
