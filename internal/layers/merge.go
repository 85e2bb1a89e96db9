package layers

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Add sums two or more shape-identical inputs elementwise. Feature-transfer
// strategies like "sum of last 4 hidden layers" use it to combine block
// outputs, and residual connections use the 2-input form.
type Add struct {
	N int // number of inputs
}

// NewAdd returns an n-ary elementwise addition layer.
func NewAdd(n int) *Add {
	if n < 2 {
		panic("layers: add needs at least 2 inputs")
	}
	return &Add{N: n}
}

func (l *Add) Type() string           { return "add" }
func (l *Add) Config() map[string]any { return map[string]any{"n": l.N} }
func (l *Add) Params() []*graph.Param { return nil }

func (l *Add) OutShape(in [][]int) []int {
	requireInputs("add", in, l.N)
	for _, s := range in[1:] {
		if !tensor.ShapeEq(s, in[0]) {
			panic(fmt.Sprintf("layers: add inputs disagree: %v vs %v", in[0], s))
		}
	}
	return append([]int(nil), in[0]...)
}

func (l *Add) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0])) * int64(l.N-1)
}

// BackwardReads implements graph.BackwardReader: the backward hands
// gradOut to every input and reads nothing else.
func (l *Add) BackwardReads() (inputs, output bool) { return false, false }

func (l *Add) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	out := tensor.NewFrom(inputs[0], inputs[0].Shape()...)
	return out, l.ForwardInto(out, inputs, train)
}

// ForwardInto implements graph.InPlaceForward: out starts as inputs[0]
// (a copy, unless it is inputs[0]) and adds the others in order.
func (l *Add) ForwardInto(out *tensor.Tensor, inputs []*tensor.Tensor, train bool) any {
	if !tensor.SameBuffer(out, inputs[0]) {
		copy(out.Data(), inputs[0].Data())
	}
	for _, x := range inputs[1:] {
		tensor.AddInPlace(out, x)
	}
	return nil
}

func (l *Add) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	grads := make([]*tensor.Tensor, l.N)
	for i := range grads {
		grads[i] = gradOut
	}
	return grads, nil
}

// Concat concatenates two or more inputs along their last dimension. The
// "concat last 4 hidden layers" feature-transfer strategy uses it.
type Concat struct {
	N int
}

// NewConcat returns an n-ary last-dimension concatenation layer.
func NewConcat(n int) *Concat {
	if n < 2 {
		panic("layers: concat needs at least 2 inputs")
	}
	return &Concat{N: n}
}

func (l *Concat) Type() string           { return "concat" }
func (l *Concat) Config() map[string]any { return map[string]any{"n": l.N} }
func (l *Concat) Params() []*graph.Param { return nil }

func (l *Concat) OutShape(in [][]int) []int {
	requireInputs("concat", in, l.N)
	out := append([]int(nil), in[0]...)
	last := len(out) - 1
	for _, s := range in[1:] {
		if len(s) != len(out) || !tensor.ShapeEq(s[:last], out[:last]) {
			panic(fmt.Sprintf("layers: concat inputs disagree: %v vs %v", in[0], s))
		}
		out[last] += s[last]
	}
	return out
}

func (l *Concat) FLOPsPerRecord(in [][]int) int64 {
	var n int64
	for _, s := range in {
		n += int64(tensor.NumElems(s))
	}
	return n // copy cost
}

func (l *Concat) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	return tensor.ConcatLast(inputs...), nil
}

func (l *Concat) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	widths := make([]int, len(inputs))
	for i, x := range inputs {
		widths[i] = x.Cols()
	}
	return tensor.SplitLast(gradOut, widths), nil
}
