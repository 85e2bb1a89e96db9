package layers

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Conv2D is a 2-D convolution over NHWC tensors with an optional fused
// activation, implemented as im2col + matmul; a pointwise conv (1×1,
// stride 1, no padding) skips the lowering.
type Conv2D struct {
	InC, OutC        int
	KH, KW           int
	StrideH, StrideW int
	PadH, PadW       int
	Act              string

	w *graph.Param // [KH*KW*InC, OutC]
	b *graph.Param // [OutC]
}

// NewConv2D returns a square-kernel convolution with "same"-style symmetric
// padding pad and stride.
func NewConv2D(inC, outC, k, stride, pad int, act string, seed int64) *Conv2D {
	return &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k,
		StrideH: stride, StrideW: stride, PadH: pad, PadW: pad, Act: act,
		w: graph.NewParamHe("w", seed, k*k*inC, k*k*inC, outC),
		b: graph.NewParam("b", outC),
	}
}

func (l *Conv2D) Type() string { return "conv2d" }

func (l *Conv2D) Config() map[string]any {
	return map[string]any{
		"in_c": l.InC, "out_c": l.OutC, "kh": l.KH, "kw": l.KW,
		"stride_h": l.StrideH, "stride_w": l.StrideW, "pad_h": l.PadH, "pad_w": l.PadW,
		"act": l.Act,
	}
}

func (l *Conv2D) Params() []*graph.Param { return []*graph.Param{l.w, l.b} }

func (l *Conv2D) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InH: in[0], InW: in[1], InC: in[2],
		KH: l.KH, KW: l.KW,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
	}
}

func (l *Conv2D) OutShape(in [][]int) []int {
	requireInputs("conv2d", in, 1)
	s := in[0]
	if len(s) != 3 || s[2] != l.InC {
		panic(fmt.Sprintf("layers: conv2d(in_c=%d) expects [H,W,%d], got %v", l.InC, l.InC, s))
	}
	g := l.geom(s)
	return []int{g.OutH(), g.OutW(), l.OutC}
}

func (l *Conv2D) FLOPsPerRecord(in [][]int) int64 {
	g := l.geom(in[0])
	positions := int64(g.OutH()) * int64(g.OutW())
	per := 2 * int64(l.KH) * int64(l.KW) * int64(l.InC) * int64(l.OutC)
	act := positions * int64(l.OutC) * activationFLOPsPerElem(l.Act)
	return positions*per + act
}

type convCache struct {
	cols *tensor.Tensor
	act  actCache
	geom tensor.ConvGeom
}

// pointwise reports a 1×1, stride-1, unpadded conv: its column matrix is
// its input, row for row. Im2Col would be an exact copy of x, and Col2Im
// adds each column gradient once onto a +0, which is the value itself —
// a MatMulBT output is never -0 (it starts at +0, and a sum is -0 only
// when both addends are), and +0 + v is v for every other v, NaN payloads
// included. So the layer reads x in place and reshapes the column
// gradient, with the bits of the lowering. The cache then aliases x,
// which the tape holds live until this node's backward step anyway (the
// liveness edge from a parent's output to its child's backward).
func (l *Conv2D) pointwise() bool {
	return l.KH == 1 && l.KW == 1 && l.StrideH == 1 && l.StrideW == 1 && l.PadH == 0 && l.PadW == 0
}

func (l *Conv2D) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	s := x.Shape()
	g := l.geom(s[1:])
	var cols *tensor.Tensor
	if l.pointwise() {
		cols = x.Reshape(-1, l.InC)
	} else {
		cols = tensor.Im2Col(x, g)
	}
	out, c := fusedAct(l.Act, tensor.MatMul(cols, l.w.Tensor()), l.b.Tensor(), train)
	return out.Reshape(s[0], g.OutH(), g.OutW(), l.OutC), convCache{cols: cols, act: c, geom: g}
}

// BackwardReads implements graph.BackwardReader: the backward reads the
// cache and the input, and the output only through an activation's mask.
func (l *Conv2D) BackwardReads() (inputs, output bool) { return true, l.Act != ActNone }

func (l *Conv2D) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(convCache)
	x := inputs[0]
	batch := x.Dim(0)
	dz := c.act.backward(l.Act, out, gradOut, need.OwnsGradOut)
	dz2 := dz.Reshape(-1, l.OutC)
	var dw, db, dx *tensor.Tensor
	if need.Params {
		dw = tensor.MatMulAT(c.cols, dz2)
		db = tensor.SumRows(dz2)
	}
	if need.Inputs {
		dcols := tensor.MatMulBT(dz2, l.w.Tensor())
		if l.pointwise() {
			dx = dcols.Reshape(x.Shape()...)
		} else {
			dx = tensor.Col2Im(dcols, batch, c.geom)
		}
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dw, db}
}

// MaxPool2D is max pooling over NHWC tensors.
type MaxPool2D struct {
	K, Stride, Pad int
}

// NewMaxPool2D returns a square max-pooling layer.
func NewMaxPool2D(k, stride, pad int) *MaxPool2D {
	return &MaxPool2D{K: k, Stride: stride, Pad: pad}
}

func (l *MaxPool2D) Type() string { return "max_pool2d" }

func (l *MaxPool2D) Config() map[string]any {
	return map[string]any{"k": l.K, "stride": l.Stride, "pad": l.Pad}
}

func (l *MaxPool2D) Params() []*graph.Param { return nil }

func (l *MaxPool2D) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InH: in[0], InW: in[1], InC: in[2],
		KH: l.K, KW: l.K, StrideH: l.Stride, StrideW: l.Stride,
		PadH: l.Pad, PadW: l.Pad,
	}
}

func (l *MaxPool2D) OutShape(in [][]int) []int {
	requireInputs("max_pool2d", in, 1)
	g := l.geom(in[0])
	return []int{g.OutH(), g.OutW(), in[0][2]}
}

func (l *MaxPool2D) FLOPsPerRecord(in [][]int) int64 {
	g := l.geom(in[0])
	return int64(g.OutH()) * int64(g.OutW()) * int64(in[0][2]) * int64(l.K*l.K)
}

type poolCache struct {
	arg     []int32
	inShape []int
}

func (l *MaxPool2D) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	g := l.geom(x.Shape()[1:])
	out, arg := tensor.MaxPool2D(x, g)
	return out, poolCache{arg: arg, inShape: x.Shape()}
}

func (l *MaxPool2D) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(poolCache)
	return []*tensor.Tensor{tensor.MaxPool2DBackward(gradOut, c.arg, c.inShape)}, nil
}

// GlobalAvgPool2D averages an NHWC record over its spatial dimensions,
// producing a channel vector.
type GlobalAvgPool2D struct{}

// NewGlobalAvgPool2D returns a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

func (l *GlobalAvgPool2D) Type() string           { return "global_avg_pool2d" }
func (l *GlobalAvgPool2D) Config() map[string]any { return map[string]any{} }
func (l *GlobalAvgPool2D) Params() []*graph.Param { return nil }

func (l *GlobalAvgPool2D) OutShape(in [][]int) []int {
	requireInputs("global_avg_pool2d", in, 1)
	if len(in[0]) != 3 {
		panic(fmt.Sprintf("layers: global_avg_pool2d expects [H,W,C], got %v", in[0]))
	}
	return []int{in[0][2]}
}

func (l *GlobalAvgPool2D) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0]))
}

func (l *GlobalAvgPool2D) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	return tensor.GlobalAvgPool(inputs[0]), nil
}

func (l *GlobalAvgPool2D) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{tensor.GlobalAvgPoolBackward(gradOut, inputs[0].Shape())}, nil
}
