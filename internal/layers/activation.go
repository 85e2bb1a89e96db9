// Package layers implements the neural-network layers used by the Nautilus
// substrate: dense, embedding, normalization, attention, convolution,
// pooling, merge layers, and composite blocks (transformer, residual,
// adapter). Every layer follows the pure-function contract of graph.Layer:
// parameters live in the layer, activations travel through the cache.
//
// Nonlinearities evaluate each transcendental once per element per step:
// one scalar definition per activation yields act(z) and act′(z); a
// train-mode forward caches act′ in the buffer z occupied, so Backward is
// one multiply, and bias + activation run as one in-place sweep over the
// matmul output (fusedAct; DESIGN.md "The activation epilogue").
package layers

import (
	"fmt"
	"math"
	"sync/atomic"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Activation names accepted by layers with a fused nonlinearity.
const (
	ActNone    = "none"
	ActReLU    = "relu"
	ActGeLU    = "gelu"
	ActTanh    = "tanh"
	ActSigmoid = "sigmoid"
)

// The scalar definitions: y = act(x), d = act′(x). Trained weights and
// bench/golden depend on these float64 expression trees bit for bit (same
// tree ⇒ same rounding, also under fused multiply-add): see activation_test.go.
// gelu and tanh live in tensor beside the vector kernels that repeat them.

func sigmoidYD(x float64) (y, d float64) {
	s := 1 / (1 + math.Exp(-x))
	return s, s * (1 - s)
}

func sigmoidRow(out, keep, src, bias []float32, deriv bool) {
	tensor.RowYD(sigmoidYD, out, keep, src, bias, deriv)
}

// actRow returns act's row evaluator (tensor.RowYD's contract): gelu and
// tanh through the vector kernels where they run, sigmoid the scalar sweep.
func actRow(act string) func(out, keep, src, bias []float32, deriv bool) {
	switch act {
	case ActGeLU:
		return tensor.GeluRow
	case ActTanh:
		return tensor.TanhRow
	case ActSigmoid:
		return sigmoidRow
	}
	panic(fmt.Sprintf("layers: unknown activation %q", act))
}

// actCache is what a nonlinearity's forward leaves for Backward: act′(z)
// when deriv (train mode), else the pre-activation z. None and relu never
// read it: their Backward needs only the output (out > 0 ⇔ z > 0).
type actCache struct {
	t     *tensor.Tensor
	deriv bool
}

// actSweep is the one pass every nonlinearity runs: per element z = src
// (+ bias per row, tensor.AddRowVec's float32 add), out = act(z), and for a
// transcendental act keep (if non-nil) gets act′(z) when deriv, else z.
// out and keep may alias src. None and relu run once per chunk of rows:
// tensor.BiasRows is AddRowVec's add in its operand order, so a NaN bias
// meeting a NaN z keeps the payload AddRowVec keeps.
func actSweep(act string, src *tensor.Tensor, bias []float32, out *tensor.Tensor, keep []float32, deriv bool) {
	sd, od, c := src.Data(), out.Data(), src.Cols()
	if act == ActNone || act == ActReLU {
		tensor.Parallel(src.Rows(), len(sd), func(lo, hi int) {
			s, o := sd[lo*c:hi*c], od[lo*c:hi*c]
			if bias != nil {
				tensor.BiasRows(o, s, bias)
				s = o
			}
			switch {
			case act == ActReLU:
				tensor.ReLUClamp(o, s) // !(z > 0) gives +0: NaN and -0 too
			case bias == nil:
				copy(o, s)
			}
		})
		return
	}
	row := actRow(act)
	tensor.Parallel(src.Rows(), len(sd)*8, func(lo, hi int) { // transcendental cost dominates
		for r := lo; r < hi; r++ {
			var kr []float32
			if keep != nil {
				kr = keep[r*c : (r+1)*c]
			}
			row(od[r*c:(r+1)*c], kr, sd[r*c:(r+1)*c], bias, deriv)
		}
	})
}

// fusedAct is the epilogue of a layer's affine part, in place over a, the
// matmul output the caller allocated and gives up. None and relu overwrite
// a; the transcendentals return a second tensor and leave the actCache in a.
func fusedAct(act string, a, bias *tensor.Tensor, train bool) (*tensor.Tensor, actCache) {
	if act == ActNone || act == ActReLU {
		actSweep(act, a, bias.Data(), a, nil, false)
		return a, actCache{}
	}
	out := tensor.NewFrom(a, a.Shape()...)
	actSweep(act, a, bias.Data(), out, a.Data(), train)
	return out, actCache{t: a, deriv: train}
}

// backward returns dL/dz = g ⊙ act′(z) for the forward that produced c and
// out. After a train-mode forward it is one multiply per element.
func (c actCache) backward(act string, out, g *tensor.Tensor) *tensor.Tensor {
	switch {
	case act == ActNone:
		return g
	case act != ActReLU && c.deriv:
		return tensor.Mul(g, c.t.Reshape(g.Shape()...))
	}
	dz := tensor.NewFrom2(out, g, g.Shape()...)
	gd, dd := g.Data(), dz.Data()
	if act == ActReLU {
		od := out.Data()
		tensor.Parallel(len(gd), len(gd), func(lo, hi int) {
			tensor.ReLUMask(dd[lo:hi], gd[lo:hi], od[lo:hi])
		})
		return dz
	}
	row, zd := actRow(act), c.t.Data() // eval-mode forward: derive act′ from z
	tensor.Parallel(len(gd), len(gd)*8, func(lo, hi int) {
		row(dd[lo:hi], dd[lo:hi], zd[lo:hi], nil, true) // keep is stored last: dd = act′(z)
		for i := lo; i < hi; i++ {
			dd[i] = gd[i] * dd[i]
		}
	})
	return dz
}

// activationFLOPsPerElem returns the approximate FLOPs one activation
// application costs per element, used by the analytical cost model.
func activationFLOPsPerElem(act string) int64 {
	switch act {
	case ActNone:
		return 0
	case ActReLU:
		return 1
	default:
		return 8 // transcendental approximations
	}
}

// Activation is a standalone elementwise nonlinearity layer.
type Activation struct {
	Act string
}

// NewActivation returns an activation layer of the given kind.
func NewActivation(act string) *Activation { return &Activation{Act: act} }

func (l *Activation) Type() string           { return "activation" }
func (l *Activation) Config() map[string]any { return map[string]any{"act": l.Act} }
func (l *Activation) Params() []*graph.Param { return nil }
func (l *Activation) OutShape(in [][]int) []int {
	requireInputs("activation", in, 1)
	return append([]int(nil), in[0]...)
}

func (l *Activation) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0])) * activationFLOPsPerElem(l.Act)
}

func (l *Activation) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	if l.Act == ActNone {
		return x, actCache{}
	}
	out := tensor.NewFrom(x, x.Shape()...)
	// x belongs to the parent node: an eval-mode forward caches it as z as
	// is, a train-mode one gives act′ a tensor of its own.
	c := actCache{t: x}
	var keep []float32
	if train && l.Act != ActReLU {
		c = actCache{t: tensor.NewFrom(x, x.Shape()...), deriv: true}
		keep = c.t.Data()
	}
	actSweep(l.Act, x, nil, out, keep, train)
	return out, c
}

func (l *Activation) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{cache.(actCache).backward(l.Act, out, gradOut)}, nil
}

// Dropout zeroes a fraction of activations during training and rescales the
// rest; it is the identity in evaluation mode and at rate 0. Each training
// forward draws its mask from a stream keyed by a per-layer call counter, so
// masks repeat run to run only while one goroutine calls the layer. A rate >
// 0 Dropout shared by concurrent fused groups stays race-free, but which
// group gets which mask depends on how their calls interleave; no shipped
// model has one.
type Dropout struct {
	Rate float64

	calls atomic.Uint64 // forward-call counter; each call keys its own mask stream
}

// NewDropout returns a dropout layer with the given drop rate in [0,1).
func NewDropout(rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("layers: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate}
}

func (l *Dropout) Type() string           { return "dropout" }
func (l *Dropout) Config() map[string]any { return map[string]any{"rate": l.Rate} }
func (l *Dropout) Params() []*graph.Param { return nil }

func (l *Dropout) OutShape(in [][]int) []int {
	requireInputs("dropout", in, 1)
	return append([]int(nil), in[0]...)
}

func (l *Dropout) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0]))
}

func (l *Dropout) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	if !train || l.Rate == 0 {
		return x, nil
	}
	mask := tensor.NewFrom(x, x.Shape()...)
	out := tensor.NewFrom(x, x.Shape()...)
	keep := float32(1 - l.Rate)
	inv := 1 / keep
	// Key an independent xorshift stream off the call number (splitmix64
	// finalizer) instead of mutating layer state: Forward stays pure per
	// the Layer contract and safe under concurrent fused execution.
	s := l.calls.Add(1) * 0x9e3779b97f4a7c15
	s = (s ^ (s >> 30)) * 0xbf58476d1ce4e5b9
	s = (s ^ (s >> 27)) * 0x94d049bb133111eb
	s ^= s >> 31
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	md, xd, od := mask.Data(), x.Data(), out.Data()
	for i := range xd {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		if float32(s>>40)/float32(1<<24) < keep {
			md[i] = inv
			od[i] = xd[i] * inv
		}
	}
	return out, mask
}

func (l *Dropout) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	if cache == nil {
		return []*tensor.Tensor{gradOut}, nil
	}
	mask := cache.(*tensor.Tensor)
	return []*tensor.Tensor{tensor.Mul(gradOut, mask)}, nil
}

func requireInputs(typ string, in [][]int, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("layers: %s expects %d input(s), got %d", typ, n, len(in)))
	}
}
