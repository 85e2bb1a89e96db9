package layers

import (
	"fmt"
	"math/rand"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

const lnEps = 1e-5

// LayerNorm normalizes activations over the last dimension and applies a
// learned gain and bias: y = γ·(x − μ)/√(σ² + ε) + β.
type LayerNorm struct {
	Dim int

	gamma, beta *graph.Param
}

// NewLayerNorm returns a layer normalization over vectors of size dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		gamma: graph.NewParamOnes("gamma", dim),
		beta:  graph.NewParam("beta", dim),
	}
}

func (l *LayerNorm) Type() string           { return "layer_norm" }
func (l *LayerNorm) Config() map[string]any { return map[string]any{"dim": l.Dim} }
func (l *LayerNorm) Params() []*graph.Param { return []*graph.Param{l.gamma, l.beta} }

func (l *LayerNorm) OutShape(in [][]int) []int {
	requireInputs("layer_norm", in, 1)
	if in[0][len(in[0])-1] != l.Dim {
		panic(fmt.Sprintf("layers: layer_norm(dim=%d) got %v", l.Dim, in[0]))
	}
	return append([]int(nil), in[0]...)
}

func (l *LayerNorm) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0])) * 8
}

// lnCache is what a train-mode forward keeps for the backward: xhat and
// one inverse deviation per row, both step-scope tensors.
type lnCache struct {
	xhat, invStd *tensor.Tensor
}

// Forward normalizes through tensor.LayerNormRows. An eval pass keeps
// neither xhat nor invStd and returns a nil cache.
func (l *LayerNorm) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	out := tensor.NewFrom(x, x.Shape()...)
	g, b := l.gamma.Tensor().Data(), l.beta.Tensor().Data()
	if !train {
		tensor.LayerNormRows(out.Data(), nil, nil, x.Data(), g, b, lnEps)
		return out, nil
	}
	xhat, invStd := tensor.NewFrom(x, x.Shape()...), tensor.NewFrom(x, x.Rows())
	tensor.LayerNormRows(out.Data(), xhat.Data(), invStd.Data(), x.Data(), g, b, lnEps)
	return out, lnCache{xhat: xhat, invStd: invStd}
}

func (l *LayerNorm) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(lnCache)
	var dx, dgamma, dbeta *tensor.Tensor
	var dxd, dg, db []float32
	if need.Params { // all rows reduce into one vector: serial, ascending r
		dgamma, dbeta = tensor.NewFrom(gradOut, l.Dim), tensor.NewFrom(gradOut, l.Dim)
		dg, db = dgamma.Data(), dbeta.Data()
	}
	if need.Inputs {
		dx = tensor.NewFrom(gradOut, inputs[0].Shape()...)
		dxd = dx.Data()
	}
	tensor.LayerNormGradRows(dxd, dg, db, gradOut.Data(), c.xhat.Data(), c.invStd.Data(), l.gamma.Tensor().Data())
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dgamma, dbeta}
}

// ChannelAffine applies a learned per-channel scale and shift over the last
// dimension: y = x·γ_c + β_c. It stands in for batch normalization in the
// ResNet substrate: during transfer learning BN layers run with frozen
// population statistics, which folds exactly into this per-channel affine
// transform (see DESIGN.md substitutions).
type ChannelAffine struct {
	Channels int

	gamma, beta *graph.Param
}

// NewChannelAffine returns a per-channel affine layer. Gains initialize
// near 1 (as trained batch-norm gammas do), so signal magnitude survives
// deep frozen stacks.
func NewChannelAffine(channels int, seed int64) *ChannelAffine {
	fn := func(rng *rand.Rand, shape []int) *tensor.Tensor {
		t := tensor.RandNormal(rng, 0.1, shape...)
		for i, v := range t.Data() {
			t.Data()[i] = 1 + v
		}
		return t
	}
	return &ChannelAffine{
		Channels: channels,
		gamma:    graph.NewParamCustom("gamma", "affine_gain_near_one", seed, fn, channels),
		beta:     graph.NewParam("beta", channels),
	}
}

func (l *ChannelAffine) Type() string           { return "channel_affine" }
func (l *ChannelAffine) Config() map[string]any { return map[string]any{"channels": l.Channels} }
func (l *ChannelAffine) Params() []*graph.Param { return []*graph.Param{l.gamma, l.beta} }

func (l *ChannelAffine) OutShape(in [][]int) []int {
	requireInputs("channel_affine", in, 1)
	if in[0][len(in[0])-1] != l.Channels {
		panic(fmt.Sprintf("layers: channel_affine(channels=%d) got %v", l.Channels, in[0]))
	}
	return append([]int(nil), in[0]...)
}

func (l *ChannelAffine) FLOPsPerRecord(in [][]int) int64 {
	return int64(tensor.NumElems(in[0])) * 2
}

func (l *ChannelAffine) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	out := tensor.NewFrom(x, x.Shape()...)
	g, b := l.gamma.Tensor().Data(), l.beta.Tensor().Data()
	c, xd, od := l.Channels, x.Data(), out.Data()
	tensor.Parallel(x.Rows(), x.Len()*2, func(lo, hi int) {
		tensor.ChannelAffineRows(od[lo*c:hi*c], xd[lo*c:hi*c], g, b)
	})
	return out, nil
}

// BackwardReads implements graph.BackwardReader: the backward reads x
// (for dγ), never its output.
func (l *ChannelAffine) BackwardReads() (inputs, output bool) { return true, false }

func (l *ChannelAffine) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x := inputs[0]
	g := l.gamma.Tensor().Data()
	c, gd := l.Channels, gradOut.Data()
	var dgamma, dbeta, dx *tensor.Tensor
	if need.Params {
		// One pass reduces both over rows in ascending order; dbeta's adds
		// are SumRows'.
		dgamma, dbeta = tensor.NewFrom(gradOut, c), tensor.NewFrom(gradOut, c)
		tensor.ChannelGradRows(dgamma.Data(), dbeta.Data(), gd, x.Data())
	}
	if need.Inputs {
		// An owned gradOut takes dx, after the reduction above has read it.
		dx = gradOut
		if !need.OwnsGradOut {
			dx = tensor.NewFrom(gradOut, x.Shape()...)
		}
		dd := dx.Data()
		tensor.Parallel(x.Rows(), x.Len(), func(lo, hi int) {
			tensor.ChannelScaleRows(dd[lo*c:hi*c], gd[lo*c:hi*c], g)
		})
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dgamma, dbeta}
}
