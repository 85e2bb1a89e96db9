package layers

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// SelectSeq extracts position T of a [seq, dim] record, producing [dim].
// Unrolled recurrent models use it to feed one timestep to each cell copy.
type SelectSeq struct {
	T, Seq int
}

// NewSelectSeq returns a layer selecting timestep t of seq.
func NewSelectSeq(t, seq int) *SelectSeq {
	if t < 0 || t >= seq {
		panic(fmt.Sprintf("layers: select t=%d out of seq %d", t, seq))
	}
	return &SelectSeq{T: t, Seq: seq}
}

func (l *SelectSeq) Type() string           { return "select_seq" }
func (l *SelectSeq) Config() map[string]any { return map[string]any{"t": l.T, "seq": l.Seq} }
func (l *SelectSeq) Params() []*graph.Param { return nil }

func (l *SelectSeq) OutShape(in [][]int) []int {
	requireInputs("select_seq", in, 1)
	if len(in[0]) != 2 || in[0][0] != l.Seq {
		panic(fmt.Sprintf("layers: select_seq(seq=%d) got %v", l.Seq, in[0]))
	}
	return []int{in[0][1]}
}

func (l *SelectSeq) FLOPsPerRecord(in [][]int) int64 { return int64(in[0][1]) }

func (l *SelectSeq) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	batch, seq, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.NewFrom(x, batch, dim)
	for b := 0; b < batch; b++ {
		copy(out.Row(b), x.Row(b*seq+l.T))
	}
	return out, nil
}

func (l *SelectSeq) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x := inputs[0]
	batch, seq := x.Dim(0), x.Dim(1)
	dx := tensor.NewFrom(gradOut, x.Shape()...)
	for b := 0; b < batch; b++ {
		copy(dx.Row(b*seq+l.T), gradOut.Row(b))
	}
	return []*tensor.Tensor{dx}, nil
}

// InitialState produces a learned initial hidden state h₀ of size Hidden,
// broadcast over the batch. It takes the model input solely to learn the
// batch size.
type InitialState struct {
	Hidden int

	h0 *graph.Param
}

// NewInitialState returns a zero-initialized learned initial state.
func NewInitialState(hidden int) *InitialState {
	return &InitialState{Hidden: hidden, h0: graph.NewParam("h0", hidden)}
}

func (l *InitialState) Type() string           { return "initial_state" }
func (l *InitialState) Config() map[string]any { return map[string]any{"hidden": l.Hidden} }
func (l *InitialState) Params() []*graph.Param { return []*graph.Param{l.h0} }

func (l *InitialState) OutShape(in [][]int) []int {
	requireInputs("initial_state", in, 1)
	return []int{l.Hidden}
}

func (l *InitialState) FLOPsPerRecord(in [][]int) int64 { return int64(l.Hidden) }

func (l *InitialState) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	batch := inputs[0].Dim(0)
	out := tensor.NewFrom(inputs[0], batch, l.Hidden)
	h := l.h0.Tensor()
	for b := 0; b < batch; b++ {
		copy(out.Row(b), h.Data())
	}
	return out, nil
}

func (l *InitialState) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	var dh *tensor.Tensor
	if need.Params {
		dh = tensor.SumRows(gradOut)
	}
	return []*tensor.Tensor{nil}, []*tensor.Tensor{dh}
}

// RNNCell is an Elman recurrence h_t = tanh(x_t·Wx + h_{t−1}·Wh + b). One
// cell instance is shared across every unrolled timestep, so its gradients
// accumulate across uses — the graph engine's shared-layer accumulation
// implements back-propagation through time.
type RNNCell struct {
	In, Hidden int

	wx, wh, b *graph.Param
}

// NewRNNCell returns an Elman cell.
func NewRNNCell(in, hidden int, seed int64) *RNNCell {
	return &RNNCell{
		In: in, Hidden: hidden,
		wx: graph.NewParamGlorot("wx", seed+1, in, hidden),
		wh: graph.NewParamGlorot("wh", seed+2, hidden, hidden),
		b:  graph.NewParam("b", hidden),
	}
}

func (l *RNNCell) Type() string { return "rnn_cell" }

func (l *RNNCell) Config() map[string]any {
	return map[string]any{"in": l.In, "hidden": l.Hidden}
}

func (l *RNNCell) Params() []*graph.Param { return []*graph.Param{l.wx, l.wh, l.b} }

func (l *RNNCell) OutShape(in [][]int) []int {
	requireInputs("rnn_cell", in, 2)
	if in[0][len(in[0])-1] != l.In || in[1][len(in[1])-1] != l.Hidden {
		panic(fmt.Sprintf("layers: rnn_cell(in=%d,hidden=%d) got %v, %v", l.In, l.Hidden, in[0], in[1]))
	}
	return []int{l.Hidden}
}

func (l *RNNCell) FLOPsPerRecord(in [][]int) int64 {
	return 2*int64(l.In)*int64(l.Hidden) + 2*int64(l.Hidden)*int64(l.Hidden) +
		int64(l.Hidden)*(2+activationFLOPsPerElem(ActTanh))
}

func (l *RNNCell) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x, h := inputs[0], inputs[1]
	z := tensor.MatMul(x, l.wx.Tensor())
	tensor.AddInPlace(z, tensor.MatMul(h, l.wh.Tensor()))
	return fusedAct(ActTanh, z, l.b.Tensor(), train)
}

func (l *RNNCell) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x, h := inputs[0], inputs[1]
	dz := cache.(actCache).backward(ActTanh, out, gradOut)
	var dwx, dwh, db, dx, dh *tensor.Tensor
	if need.Params {
		dwx = tensor.MatMulAT(x, dz)
		dwh = tensor.MatMulAT(h, dz)
		db = tensor.SumRows(dz)
	}
	if need.Inputs {
		dx = tensor.MatMulBT(dz, l.wx.Tensor())
		dh = tensor.MatMulBT(dz, l.wh.Tensor())
	}
	return []*tensor.Tensor{dx, dh}, []*tensor.Tensor{dwx, dwh, db}
}
