// Package layers implements the neural-network layers used by the Nautilus
// substrate: dense, embedding, normalization, attention, convolution,
// pooling, merge layers, and composite blocks (transformer, residual,
// adapter). Every layer follows the pure-function contract of graph.Layer:
// parameters live in the layer, activations travel through the cache.
//
// Nonlinearities evaluate each transcendental once per element per step:
// one scalar definition per activation yields act(z) and act′(z); a
// train-mode forward caches act′ in the buffer z occupied, so Backward is
// one multiply, an eval-mode forward keeps nothing, and bias + activation
// run as one in-place sweep over the matmul output (fusedAct; DESIGN.md
// "The activation epilogue").
package layers

import (
	"fmt"
	"math"

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

func sigmoidRow(out, keep, src, bias []float32) {
	tensor.RowYD(sigmoidYD, out, keep, src, bias)
}

// actRow returns act's row evaluator (tensor.RowYD's contract): gelu and
// tanh through the vector kernels where they run, sigmoid the scalar sweep.
func actRow(act string) func(out, keep, src, bias []float32) {
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

// actCache is what a train-mode nonlinearity's forward leaves for
// Backward: act′(z). None and relu never read it: their Backward needs only
// the output (out > 0 ⇔ z > 0). An eval-mode forward leaves it empty.
type actCache struct{ t *tensor.Tensor }

// actSweep is the one pass every nonlinearity runs: per element z = src
// (+ bias per row, tensor.AddRowVec's float32 add), out = act(z), and for a
// transcendental act keep (if non-nil) gets act′(z). out and keep may
// alias src. None and relu run once per chunk of rows: tensor.BiasRows is
// AddRowVec's add in its operand order, so a NaN bias meeting a NaN z keeps
// the payload AddRowVec keeps.
func actSweep(act string, src *tensor.Tensor, bias []float32, out *tensor.Tensor, keep []float32) {
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
			row(od[r*c:(r+1)*c], kr, sd[r*c:(r+1)*c], bias)
		}
	})
}

// fusedAct is the epilogue of a layer's affine part, in place over a, the
// matmul output the caller allocated and gives up. None, relu and every
// eval-mode forward overwrite a; a train-mode transcendental returns a
// second tensor and leaves act′ in a.
func fusedAct(act string, a, bias *tensor.Tensor, train bool) (*tensor.Tensor, actCache) {
	if act == ActNone || act == ActReLU || !train {
		actSweep(act, a, bias.Data(), a, nil)
		return a, actCache{}
	}
	out := tensor.NewFrom(a, a.Shape()...)
	actSweep(act, a, bias.Data(), out, a.Data())
	return out, actCache{a}
}

// backward returns dL/dz = g ⊙ act′(z) for the train-mode forward that
// produced c and out: one multiply per element. When the caller owns g
// (graph.BackwardNeed.OwnsGradOut), relu's mask writes over g: ReLUMask
// reads element i before it writes it.
func (c actCache) backward(act string, out, g *tensor.Tensor, own bool) *tensor.Tensor {
	switch act {
	case ActNone:
		return g
	case ActReLU:
		dz := g
		if !own {
			dz = tensor.NewFrom2(out, g, g.Shape()...)
		}
		gd, dd, od := g.Data(), dz.Data(), out.Data()
		tensor.Parallel(len(gd), len(gd), func(lo, hi int) {
			tensor.ReLUMask(dd[lo:hi], gd[lo:hi], od[lo:hi])
		})
		return dz
	}
	return tensor.Mul(g, c.t.Reshape(g.Shape()...))
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

// BackwardReads implements graph.BackwardReader: relu's backward reads
// only its output (out > 0 ⇔ x > 0); the others keep the paper's rule.
func (l *Activation) BackwardReads() (inputs, output bool) { return l.Act != ActReLU, true }

func (l *Activation) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	if l.Act == ActNone {
		return x, actCache{}
	}
	out := tensor.NewFrom(x, x.Shape()...)
	return out, l.ForwardInto(out, inputs, train)
}

// ForwardInto implements graph.InPlaceForward: one sweep from x into out,
// which may be x (relu, whose backward never reads x).
func (l *Activation) ForwardInto(out *tensor.Tensor, inputs []*tensor.Tensor, train bool) any {
	x := inputs[0]
	// x belongs to the parent node: a train-mode transcendental gives act′
	// a tensor of its own. None, relu and eval mode keep nothing.
	var c actCache
	var keep []float32
	if train && l.Act != ActNone && l.Act != ActReLU {
		c = actCache{tensor.NewFrom(x, x.Shape()...)}
		keep = c.t.Data()
	}
	actSweep(l.Act, x, nil, out, keep)
	return c
}

func (l *Activation) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{cache.(actCache).backward(l.Act, out, gradOut, need.OwnsGradOut)}, nil
}

func requireInputs(typ string, in [][]int, n int) {
	if len(in) != n {
		panic(fmt.Sprintf("layers: %s expects %d input(s), got %d", typ, n, len(in)))
	}
}
