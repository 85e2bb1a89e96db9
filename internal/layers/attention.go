package layers

import (
	"fmt"
	"math"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// MultiHeadAttention is full scaled-dot-product self-attention over a
// [seq, dim] record: Q/K/V projections, per-head softmax attention, and an
// output projection, as in the transformer architecture BERT is built from.
type MultiHeadAttention struct {
	Dim, Heads int

	wq, wk, wv, wo *graph.Param
	bq, bk, bv, bo *graph.Param
}

// NewMultiHeadAttention returns a self-attention layer; dim must be
// divisible by heads.
func NewMultiHeadAttention(dim, heads int, seed int64) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("layers: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads,
		wq: graph.NewParamGlorot("wq", seed+1, dim, dim),
		wk: graph.NewParamGlorot("wk", seed+2, dim, dim),
		wv: graph.NewParamGlorot("wv", seed+3, dim, dim),
		// The output projection writes into the residual stream; a small
		// init keeps each block a mild refinement of its input, matching
		// the near-identity residual updates of trained transformers.
		wo: graph.NewParamNormal("wo", seed+4, 0.02, dim, dim),
		bq: graph.NewParam("bq", dim),
		bk: graph.NewParam("bk", dim),
		bv: graph.NewParam("bv", dim),
		bo: graph.NewParam("bo", dim),
	}
}

func (l *MultiHeadAttention) Type() string { return "mha" }

func (l *MultiHeadAttention) Config() map[string]any {
	return map[string]any{"dim": l.Dim, "heads": l.Heads}
}

func (l *MultiHeadAttention) Params() []*graph.Param {
	return []*graph.Param{l.wq, l.bq, l.wk, l.bk, l.wv, l.bv, l.wo, l.bo}
}

func (l *MultiHeadAttention) OutShape(in [][]int) []int {
	requireInputs("mha", in, 1)
	if len(in[0]) != 2 || in[0][1] != l.Dim {
		panic(fmt.Sprintf("layers: mha(dim=%d) expects [seq,%d], got %v", l.Dim, l.Dim, in[0]))
	}
	return append([]int(nil), in[0]...)
}

func (l *MultiHeadAttention) FLOPsPerRecord(in [][]int) int64 {
	seq, dim := int64(in[0][0]), int64(l.Dim)
	proj := 4 * 2 * seq * dim * dim // Q,K,V,O projections
	attn := 2 * 2 * seq * seq * dim // scores + weighted value sum
	return proj + attn
}

// ActivationBytesPerRecord reports all intermediates the backward pass
// retains: Q, K, V, the concatenated head context, and the per-head
// attention matrices.
func (l *MultiHeadAttention) ActivationBytesPerRecord(in [][]int) int64 {
	seq := int64(in[0][0])
	dim := int64(l.Dim)
	qkvCtx := 4 * seq * dim * 4
	attn := int64(l.Heads) * seq * seq * 4
	out := seq * dim * 4
	return qkvCtx + attn + out
}

type mhaCache struct {
	q, k, v *tensor.Tensor // [batch*seq, dim]
	attn    *tensor.Tensor // [batch, heads, seq, seq] softmax weights
	ctx     *tensor.Tensor // [batch*seq, dim] concatenated head outputs
}

func (l *MultiHeadAttention) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	batch, seq, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	scale := float32(1 / math.Sqrt(float64(dim/l.Heads)))

	// Each projection's bias lands in the matmul buffer itself: nobody else
	// holds it, and the add is AddRowVec's float32 a[j]+b[j].
	q := tensor.AddRowVecInPlace(tensor.MatMul(x, l.wq.Tensor()), l.bq.Tensor())
	k := tensor.AddRowVecInPlace(tensor.MatMul(x, l.wk.Tensor()), l.bk.Tensor())
	v := tensor.AddRowVecInPlace(tensor.MatMul(x, l.wv.Tensor()), l.bv.Tensor())

	attn, ctx := tensor.Attention(q, k, v, batch, l.Heads, scale)
	out := tensor.AddRowVecInPlace(tensor.MatMul(ctx, l.wo.Tensor()), l.bo.Tensor())
	return out.Reshape(batch, seq, dim), mhaCache{q: q, k: k, v: v, attn: attn, ctx: ctx}
}

func (l *MultiHeadAttention) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(mhaCache)
	x := inputs[0]
	batch, seq, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	scale := float32(1 / math.Sqrt(float64(dim/l.Heads)))

	g := gradOut.Reshape(batch*seq, dim)
	var dwo, dbo *tensor.Tensor
	if need.Params {
		dwo = tensor.MatMulAT(c.ctx, g)
		dbo = tensor.SumRows(g)
	}
	dctx := tensor.MatMulBT(g, l.wo.Tensor())

	dq, dk, dv := tensor.AttentionBackward(c.q, c.k, c.v, c.attn, dctx, scale)

	var dwq, dwk, dwv, dbq, dbk, dbv *tensor.Tensor
	if need.Params {
		xf := x.Reshape(batch*seq, dim)
		dwq = tensor.MatMulAT(xf, dq)
		dwk = tensor.MatMulAT(xf, dk)
		dwv = tensor.MatMulAT(xf, dv)
		dbq = tensor.SumRows(dq)
		dbk = tensor.SumRows(dk)
		dbv = tensor.SumRows(dv)
	}

	var dxOut *tensor.Tensor
	if need.Inputs {
		dx := tensor.MatMulBT(dq, l.wq.Tensor())
		tensor.AddInPlace(dx, tensor.MatMulBT(dk, l.wk.Tensor()))
		tensor.AddInPlace(dx, tensor.MatMulBT(dv, l.wv.Tensor()))
		dxOut = dx.Reshape(batch, seq, dim)
	}

	return []*tensor.Tensor{dxOut},
		[]*tensor.Tensor{dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo}
}
