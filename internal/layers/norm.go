package layers

import (
	"fmt"
	"math"
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

type lnCache struct {
	xhat   *tensor.Tensor
	invStd []float32 // one per row
}

func (l *LayerNorm) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	rows, d := x.Rows(), l.Dim
	out := tensor.NewFrom(x, x.Shape()...)
	xhat := tensor.NewFrom(x, x.Shape()...)
	invStd := make([]float32, rows)
	g, b := l.gamma.Tensor().Data(), l.beta.Tensor().Data()
	tensor.Parallel(rows, x.Len()*8, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			xr, or, hr := x.Row(r), out.Row(r), xhat.Row(r)
			var mean float64
			for _, v := range xr {
				mean += float64(v)
			}
			mean /= float64(d)
			var varsum float64
			for _, v := range xr {
				dv := float64(v) - mean
				varsum += dv * dv
			}
			inv := float32(1 / math.Sqrt(varsum/float64(d)+lnEps))
			invStd[r] = inv
			for j := 0; j < d; j++ {
				h := (xr[j] - float32(mean)) * inv
				hr[j] = h
				or[j] = h*g[j] + b[j]
			}
		}
	})
	return out, lnCache{xhat: xhat, invStd: invStd}
}

func (l *LayerNorm) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(lnCache)
	x := inputs[0]
	rows, d := x.Rows(), l.Dim
	g := l.gamma.Tensor().Data()
	var dgamma, dbeta *tensor.Tensor
	if need.Params { // all rows reduce into one vector: serial, ascending r
		dgamma, dbeta = tensor.NewFrom(gradOut, l.Dim), tensor.NewFrom(gradOut, l.Dim)
		dg, db := dgamma.Data(), dbeta.Data()
		for r := 0; r < rows; r++ {
			gr, hr := gradOut.Row(r), c.xhat.Row(r)
			for j := 0; j < d; j++ {
				dg[j] += gr[j] * hr[j]
				db[j] += gr[j]
			}
		}
	}
	if !need.Inputs {
		return []*tensor.Tensor{nil}, []*tensor.Tensor{dgamma, dbeta}
	}
	dx := tensor.NewFrom(gradOut, x.Shape()...)
	tensor.Parallel(rows, x.Len()*8, func(lo, hi int) { // row r of dx reads only row r
		for r := lo; r < hi; r++ {
			gr, hr := gradOut.Row(r), c.xhat.Row(r)
			var sumDh, sumDhH float64
			for j := 0; j < d; j++ {
				dh := float64(gr[j]) * float64(g[j])
				sumDh += dh
				sumDhH += dh * float64(hr[j])
			}
			inv := float64(c.invStd[r])
			nd := float64(d)
			meanDh := sumDh / nd // loop-invariant: the same quotient per element
			dr := dx.Row(r)
			for j := 0; j < d; j++ {
				dh := float64(gr[j]) * float64(g[j])
				dr[j] = float32(inv * (dh - meanDh - float64(hr[j])*sumDhH/nd))
			}
		}
	})
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
