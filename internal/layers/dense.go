package layers

import (
	"fmt"
	"math/rand"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Dense is a fully connected layer over the last input dimension with an
// optional fused activation: y = act(x·W + b).
type Dense struct {
	In, Out int
	Act     string

	w, b *graph.Param
}

// NewDense returns a Dense layer with Glorot-initialized weights derived
// from seed.
func NewDense(in, out int, act string, seed int64) *Dense {
	return &Dense{
		In: in, Out: out, Act: act,
		w: graph.NewParamGlorot("w", seed, in, out),
		b: graph.NewParam("b", out),
	}
}

// NewDenseNormalInit returns a Dense layer whose weights initialize from
// N(0, std²) instead of Glorot; residual-stream write projections use it
// with a small std.
func NewDenseNormalInit(in, out int, act string, seed int64, std float64) *Dense {
	return &Dense{
		In: in, Out: out, Act: act,
		w: graph.NewParamNormal("w", seed, std, in, out),
		b: graph.NewParam("b", out),
	}
}

func (l *Dense) Type() string { return "dense" }

func (l *Dense) Config() map[string]any {
	return map[string]any{"in": l.In, "out": l.Out, "act": l.Act}
}

func (l *Dense) Params() []*graph.Param { return []*graph.Param{l.w, l.b} }

func (l *Dense) OutShape(in [][]int) []int {
	requireInputs("dense", in, 1)
	s := in[0]
	if len(s) == 0 || s[len(s)-1] != l.In {
		panic(fmt.Sprintf("layers: dense(in=%d) got input shape %v", l.In, s))
	}
	out := append([]int(nil), s...)
	out[len(out)-1] = l.Out
	return out
}

func (l *Dense) FLOPsPerRecord(in [][]int) int64 {
	rows := int64(tensor.NumElems(in[0])) / int64(l.In)
	matmul := 2 * rows * int64(l.In) * int64(l.Out)
	bias := rows * int64(l.Out)
	act := rows * int64(l.Out) * activationFLOPsPerElem(l.Act)
	return matmul + bias + act
}

func (l *Dense) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	out, c := fusedAct(l.Act, tensor.MatMul(x, l.w.Tensor()), l.b.Tensor(), train)
	return out.Reshape(denseOutShape(x.Shape(), l.Out)...), c
}

func (l *Dense) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x := inputs[0]
	dz := cache.(actCache).backward(l.Act, out, gradOut, need.OwnsGradOut)
	var dw, db, dx *tensor.Tensor
	if need.Params {
		dw = tensor.MatMulAT(x, dz)
		db = tensor.SumRows(dz)
	}
	if need.Inputs {
		dx = tensor.MatMulBT(dz, l.w.Tensor()).Reshape(x.Shape()...)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dw, db}
}

func denseOutShape(in []int, out int) []int {
	s := append([]int(nil), in...)
	s[len(s)-1] = out
	return s
}

// Embedding maps integer token ids (stored as float32) of per-record shape
// [seq] to vectors, producing [seq, dim].
type Embedding struct {
	Vocab, Dim int

	table *graph.Param
}

// NewClusteredEmbedding returns an embedding whose "pre-trained" table
// plants semantic cluster structure: tokens in the same contiguous cluster
// of the vocabulary share a center vector plus small per-token noise. This
// simulates what real pre-training produces — embeddings in which
// semantically related tokens are close — which is the property transfer
// learning exploits (see DESIGN.md substitutions).
func NewClusteredEmbedding(vocab, dim, clusters int, seed int64) *Embedding {
	if clusters < 1 {
		clusters = 1
	}
	tag := fmt.Sprintf("clustered_embedding/%d", clusters)
	fn := func(rng *rand.Rand, shape []int) *tensor.Tensor {
		v, d := shape[0], shape[1]
		csize := (v + clusters - 1) / clusters
		centers := tensor.RandNormal(rng, 0.08, clusters, d)
		table := tensor.RandNormal(rng, 0.02, v, d)
		for t := 0; t < v; t++ {
			row := table.Row(t)
			c := centers.Row(t / csize)
			for j := range row {
				row[j] += c[j]
			}
		}
		return table
	}
	return &Embedding{Vocab: vocab, Dim: dim, table: graph.NewParamCustom("table", tag, seed, fn, vocab, dim)}
}

func (l *Embedding) Type() string { return "embedding" }

func (l *Embedding) Config() map[string]any {
	return map[string]any{"vocab": l.Vocab, "dim": l.Dim}
}

func (l *Embedding) Params() []*graph.Param { return []*graph.Param{l.table} }

func (l *Embedding) OutShape(in [][]int) []int {
	requireInputs("embedding", in, 1)
	if len(in[0]) != 1 {
		panic(fmt.Sprintf("layers: embedding expects [seq] input, got %v", in[0]))
	}
	return []int{in[0][0], l.Dim}
}

func (l *Embedding) FLOPsPerRecord(in [][]int) int64 {
	// A lookup copies dim floats per token; count it as one op per float.
	return int64(in[0][0]) * int64(l.Dim)
}

func (l *Embedding) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	ids := inputs[0]
	batch, seq := ids.Dim(0), ids.Dim(1)
	tab := l.table.Tensor()
	out := tensor.NewFrom(ids, batch, seq, l.Dim)
	for r := 0; r < batch*seq; r++ {
		id := int(ids.Data()[r])
		if id < 0 || id >= l.Vocab {
			panic(fmt.Sprintf("layers: token id %d out of vocab %d", id, l.Vocab))
		}
		copy(out.Row(r), tab.Row(id))
	}
	return out, nil
}

func (l *Embedding) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	ids := inputs[0]
	dtab := tensor.NewFrom(gradOut, l.Vocab, l.Dim)
	for r := 0; r < ids.Len(); r++ {
		id := int(ids.Data()[r])
		dst := dtab.Row(id)
		src := gradOut.Row(r)
		for j := range dst {
			dst[j] += src[j]
		}
	}
	// Token ids carry no gradient.
	return []*tensor.Tensor{nil}, []*tensor.Tensor{dtab}
}

// PositionalEmbedding adds a learned per-position vector to a [seq, dim]
// activation.
type PositionalEmbedding struct {
	Seq, Dim int

	table *graph.Param
}

// NewPositionalEmbedding returns a positional embedding for sequences of
// exactly seq positions.
func NewPositionalEmbedding(seq, dim int, seed int64) *PositionalEmbedding {
	return &PositionalEmbedding{Seq: seq, Dim: dim, table: graph.NewParamNormal("pos", seed, 0.02, seq, dim)}
}

func (l *PositionalEmbedding) Type() string { return "pos_embedding" }

func (l *PositionalEmbedding) Config() map[string]any {
	return map[string]any{"seq": l.Seq, "dim": l.Dim}
}

func (l *PositionalEmbedding) Params() []*graph.Param { return []*graph.Param{l.table} }

func (l *PositionalEmbedding) OutShape(in [][]int) []int {
	requireInputs("pos_embedding", in, 1)
	if len(in[0]) != 2 || in[0][0] != l.Seq || in[0][1] != l.Dim {
		panic(fmt.Sprintf("layers: pos_embedding(seq=%d,dim=%d) got %v", l.Seq, l.Dim, in[0]))
	}
	return append([]int(nil), in[0]...)
}

func (l *PositionalEmbedding) FLOPsPerRecord(in [][]int) int64 {
	return int64(l.Seq) * int64(l.Dim)
}

func (l *PositionalEmbedding) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	batch := x.Dim(0)
	tab := l.table.Tensor()
	out := tensor.NewFrom(x, x.Shape()...)
	for b := 0; b < batch; b++ {
		for s := 0; s < l.Seq; s++ {
			xr := x.Row(b*l.Seq + s)
			tr := tab.Row(s)
			or := out.Row(b*l.Seq + s)
			for j := range or {
				or[j] = xr[j] + tr[j]
			}
		}
	}
	return out, nil
}

func (l *PositionalEmbedding) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	batch := gradOut.Dim(0)
	dtab := tensor.NewFrom(gradOut, l.Seq, l.Dim)
	for b := 0; b < batch; b++ {
		for s := 0; s < l.Seq; s++ {
			gr := gradOut.Row(b*l.Seq + s)
			dr := dtab.Row(s)
			for j := range dr {
				dr[j] += gr[j]
			}
		}
	}
	return []*tensor.Tensor{gradOut}, []*tensor.Tensor{dtab}
}
