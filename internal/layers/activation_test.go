package layers

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// The oracle: the two-function activation path every layer used before the
// single-evaluation epilogue (one transcendental in forward, the same one
// again in backward), kept verbatim. The fused path must reproduce its
// bits — trained weights and bench/golden were produced by it.

const geluC = 0.7978845608028654 // sqrt(2/pi)

// applyActivation computes act(z) elementwise into a new tensor.
func applyActivation(act string, z *tensor.Tensor) *tensor.Tensor {
	if act == ActNone {
		return z
	}
	out := tensor.NewFrom(z, z.Shape()...)
	zd, od := z.Data(), out.Data()
	for i := range zd {
		switch act {
		case ActReLU:
			if v := zd[i]; v > 0 {
				od[i] = v
			}
		case ActGeLU:
			x := float64(zd[i])
			od[i] = float32(0.5 * x * (1 + math.Tanh(geluC*(x+0.044715*x*x*x))))
		case ActTanh:
			od[i] = float32(math.Tanh(float64(zd[i])))
		case ActSigmoid:
			od[i] = float32(1 / (1 + math.Exp(-float64(zd[i]))))
		default:
			panic(fmt.Sprintf("layers: unknown activation %q", act))
		}
	}
	return out
}

// activationBackward computes dL/dz = g ⊙ act'(z) given pre-activation z.
func activationBackward(act string, z, g *tensor.Tensor) *tensor.Tensor {
	if act == ActNone {
		return g
	}
	out := tensor.NewFrom2(z, g, z.Shape()...)
	zd, gd, od := z.Data(), g.Data(), out.Data()
	for i := range zd {
		switch act {
		case ActReLU:
			if zd[i] > 0 {
				od[i] = gd[i]
			}
		case ActGeLU:
			x := float64(zd[i])
			u := geluC * (x + 0.044715*x*x*x)
			th := math.Tanh(u)
			du := geluC * (1 + 3*0.044715*x*x)
			d := 0.5*(1+th) + 0.5*x*(1-th*th)*du
			od[i] = gd[i] * float32(d)
		case ActTanh:
			th := math.Tanh(float64(zd[i]))
			od[i] = gd[i] * float32(1-th*th)
		case ActSigmoid:
			s := 1 / (1 + math.Exp(-float64(zd[i])))
			od[i] = gd[i] * float32(s*(1-s))
		default:
			panic(fmt.Sprintf("layers: unknown activation %q", act))
		}
	}
	return out
}

// Oracle layers: the pre-change Forward/Backward bodies over the real
// layer's parameters.

type oracleDense struct{ *Dense }

func (l oracleDense) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	z := tensor.AddRowVec(tensor.MatMul(x, l.w.Tensor()), l.b.Tensor())
	z = z.Reshape(denseOutShape(x.Shape(), l.Out)...)
	return applyActivation(l.Act, z), z
}

func (l oracleDense) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x := inputs[0]
	dz := activationBackward(l.Act, cache.(*tensor.Tensor), gradOut)
	var dw, db, dx *tensor.Tensor
	if need.Params {
		dw, db = tensor.MatMulAT(x, dz), tensor.SumRows(dz)
	}
	if need.Inputs {
		dx = tensor.MatMulBT(dz, l.w.Tensor()).Reshape(x.Shape()...)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dw, db}
}

type oracleConv struct{ *Conv2D }

type oracleConvCache struct {
	cols, z *tensor.Tensor
	geom    tensor.ConvGeom
}

func (l oracleConv) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	s := x.Shape()
	g := l.geom(s[1:])
	cols := tensor.Im2Col(x, g)
	z := tensor.AddRowVec(tensor.MatMul(cols, l.w.Tensor()), l.b.Tensor())
	z = z.Reshape(s[0], g.OutH(), g.OutW(), l.OutC)
	return applyActivation(l.Act, z), oracleConvCache{cols: cols, z: z, geom: g}
}

func (l oracleConv) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(oracleConvCache)
	dz2 := activationBackward(l.Act, c.z, gradOut).Reshape(-1, l.OutC)
	var dw, db, dx *tensor.Tensor
	if need.Params {
		dw, db = tensor.MatMulAT(c.cols, dz2), tensor.SumRows(dz2)
	}
	if need.Inputs {
		dx = tensor.Col2Im(tensor.MatMulBT(dz2, l.w.Tensor()), inputs[0].Dim(0), c.geom)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dw, db}
}

type oracleAdapter struct{ *Adapter }

func (l oracleAdapter) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	z := tensor.AddRowVec(tensor.MatMul(x, l.wd.Tensor()), l.bd.Tensor())
	h := applyActivation(ActGeLU, z)
	up := tensor.AddRowVec(tensor.MatMul(h, l.wu.Tensor()), l.bu.Tensor())
	out := tensor.Add(x.Reshape(up.Shape()...), up).Reshape(x.Shape()...)
	return out, [2]*tensor.Tensor{z, h}
}

func (l oracleAdapter) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.([2]*tensor.Tensor)
	x := inputs[0]
	g := gradOut.Reshape(-1, l.Dim)
	dz := activationBackward(ActGeLU, c[0], tensor.MatMulBT(g, l.wu.Tensor()))
	var dwu, dbu, dwd, dbd, dx *tensor.Tensor
	if need.Params {
		dwu, dbu = tensor.MatMulAT(c[1], g), tensor.SumRows(g)
		dwd, dbd = tensor.MatMulAT(x, dz), tensor.SumRows(dz)
	}
	if need.Inputs {
		dx = tensor.AddInPlace(tensor.MatMulBT(dz, l.wd.Tensor()), g).Reshape(x.Shape()...)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dwd, dbd, dwu, dbu}
}

type oracleMHA struct{ *MultiHeadAttention }

// The per-(batch, head) chain of public kernels MultiHeadAttention ran
// before the fused attention kernels: copy each head out, run the products
// and the softmax on it, scatter the result back.

func (l oracleMHA) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	batch, seq, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	heads := l.Heads
	dh := dim / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	q := tensor.AddRowVec(tensor.MatMul(x, l.wq.Tensor()), l.bq.Tensor())
	k := tensor.AddRowVec(tensor.MatMul(x, l.wk.Tensor()), l.bk.Tensor())
	v := tensor.AddRowVec(tensor.MatMul(x, l.wv.Tensor()), l.bv.Tensor())

	attn := tensor.NewFrom(x, batch, heads, seq, seq)
	ctx := tensor.NewFrom(x, batch*seq, dim)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			qh := headSlice(q, b, h, seq, dim, dh)
			kh := headSlice(k, b, h, seq, dim, dh)
			vh := headSlice(v, b, h, seq, dim, dh)
			scores := scaleInPlace(tensor.MatMulBT(qh, kh), scale)
			a := tensor.SoftmaxRows(scores)
			copy(attn.Data()[((b*heads)+h)*seq*seq:], a.Data())
			oh := tensor.MatMul(a, vh)
			writeHeadSlice(ctx, oh, b, h, seq, dim, dh)
		}
	}
	out := tensor.AddRowVec(tensor.MatMul(ctx, l.wo.Tensor()), l.bo.Tensor())
	return out.Reshape(batch, seq, dim), mhaCache{q: q, k: k, v: v, attn: attn, ctx: ctx}
}

func (l oracleMHA) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	c := cache.(mhaCache)
	x := inputs[0]
	batch, seq, dim := x.Dim(0), x.Dim(1), x.Dim(2)
	heads := l.Heads
	dh := dim / heads
	scale := float32(1 / math.Sqrt(float64(dh)))

	g := gradOut.Reshape(batch*seq, dim)
	dctx := tensor.MatMulBT(g, l.wo.Tensor())
	dq := tensor.NewFrom(gradOut, batch*seq, dim)
	dk := tensor.NewFrom(gradOut, batch*seq, dim)
	dv := tensor.NewFrom(gradOut, batch*seq, dim)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			a := tensor.FromSlice(c.attn.Data()[((b*heads)+h)*seq*seq:((b*heads)+h+1)*seq*seq], seq, seq)
			vh := headSlice(c.v, b, h, seq, dim, dh)
			qh := headSlice(c.q, b, h, seq, dim, dh)
			kh := headSlice(c.k, b, h, seq, dim, dh)
			doh := headSlice(dctx, b, h, seq, dim, dh)

			dvh := tensor.MatMulAT(a, doh)
			da := tensor.MatMulBT(doh, vh)
			ds := scaleInPlace(softmaxRowsBackward(a, da), scale)
			dqh := tensor.MatMul(ds, kh)
			dkh := tensor.MatMulAT(ds, qh)

			writeHeadSlice(dq, dqh, b, h, seq, dim, dh)
			writeHeadSlice(dk, dkh, b, h, seq, dim, dh)
			writeHeadSlice(dv, dvh, b, h, seq, dim, dh)
		}
	}

	var dwq, dwk, dwv, dbq, dbk, dbv, dwo, dbo, dx *tensor.Tensor
	if need.Params {
		xf := x.Reshape(batch*seq, dim)
		dwq, dwk, dwv = tensor.MatMulAT(xf, dq), tensor.MatMulAT(xf, dk), tensor.MatMulAT(xf, dv)
		dbq, dbk, dbv = tensor.SumRows(dq), tensor.SumRows(dk), tensor.SumRows(dv)
		dwo, dbo = tensor.MatMulAT(c.ctx, g), tensor.SumRows(g)
	}
	if need.Inputs {
		dx = tensor.MatMulBT(dq, l.wq.Tensor())
		tensor.AddInPlace(dx, tensor.MatMulBT(dk, l.wk.Tensor()))
		tensor.AddInPlace(dx, tensor.MatMulBT(dv, l.wv.Tensor()))
		dx = dx.Reshape(batch, seq, dim)
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dwq, dbq, dwk, dbk, dwv, dbv, dwo, dbo}
}

// headSlice copies head h of batch element b out of a [batch*seq, dim]
// matrix into a contiguous [seq, dh] matrix.
func headSlice(m *tensor.Tensor, b, h, seq, dim, dh int) *tensor.Tensor {
	out := tensor.NewFrom(m, seq, dh)
	for s := 0; s < seq; s++ {
		copy(out.Row(s), m.Row(b*seq + s)[h*dh:(h+1)*dh])
	}
	return out
}

// writeHeadSlice scatters a [seq, dh] head matrix back into the head-h
// columns of batch element b of a [batch*seq, dim] matrix.
func writeHeadSlice(dst, src *tensor.Tensor, b, h, seq, dim, dh int) {
	for s := 0; s < seq; s++ {
		copy(dst.Row(b*seq + s)[h*dh:(h+1)*dh], src.Row(s))
	}
}

// scaleInPlace multiplies every element of a by s and returns a.
func scaleInPlace(a *tensor.Tensor, s float32) *tensor.Tensor {
	for i := range a.Data() {
		a.Data()[i] *= s
	}
	return a
}

// softmaxRowsBackward is softmax's input gradient from its output y and
// upstream gradient g, per row: dx = y ⊙ (g − Σ g⊙y), the sum in float64.
func softmaxRowsBackward(y, g *tensor.Tensor) *tensor.Tensor {
	out := tensor.NewFrom2(y, g, y.Shape()...)
	for r := 0; r < y.Rows(); r++ {
		yr, gr, or := y.Row(r), g.Row(r), out.Row(r)
		var dot float64
		for j := range yr {
			dot += float64(yr[j] * gr[j])
		}
		d := float32(dot)
		for j := range yr {
			or[j] = yr[j] * (gr[j] - d)
		}
	}
	return out
}

// oracleChannelAffine is ChannelAffine's scalar row loops from before the
// channel helpers, kept verbatim.
type oracleChannelAffine struct{ *ChannelAffine }

func (l oracleChannelAffine) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	x := inputs[0]
	out := tensor.NewFrom(x, x.Shape()...)
	g, b := l.gamma.Tensor().Data(), l.beta.Tensor().Data()
	c := l.Channels
	for r := 0; r < x.Rows(); r++ {
		xr, or := x.Row(r), out.Row(r)
		for j := 0; j < c; j++ {
			or[j] = xr[j]*g[j] + b[j]
		}
	}
	return out, nil
}

func (l oracleChannelAffine) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	x := inputs[0]
	g := l.gamma.Tensor().Data()
	c := l.Channels
	var dgamma, dbeta, dx *tensor.Tensor
	if need.Params {
		dgamma, dbeta = tensor.NewFrom(gradOut, c), tensor.SumRows(gradOut)
		dg := dgamma.Data()
		for r := 0; r < x.Rows(); r++ {
			xr, gr := x.Row(r), gradOut.Row(r)
			for j := 0; j < c; j++ {
				dg[j] += gr[j] * xr[j]
			}
		}
	}
	if need.Inputs {
		dx = tensor.NewFrom(gradOut, x.Shape()...)
		for r := 0; r < x.Rows(); r++ {
			gr, dr := gradOut.Row(r), dx.Row(r)
			for j := 0; j < c; j++ {
				dr[j] = gr[j] * g[j]
			}
		}
	}
	return []*tensor.Tensor{dx}, []*tensor.Tensor{dgamma, dbeta}
}

type oracleActivation struct{ *Activation }

func (l oracleActivation) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	return applyActivation(l.Act, inputs[0]), nil
}

func (l oracleActivation) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	return []*tensor.Tensor{activationBackward(l.Act, inputs[0], gradOut)}, nil
}

// oracleOf returns the pre-change implementation of l; a Composite is
// rebuilt node for node around the same layer instances (so the same
// parameters), with every fused-nonlinearity layer swapped for its oracle.
func oracleOf(l graph.Layer) graph.Layer {
	switch l := l.(type) {
	case *Dense:
		return oracleDense{l}
	case *Conv2D:
		return oracleConv{l}
	case *Adapter:
		return oracleAdapter{l}
	case *Activation:
		return oracleActivation{l}
	case *MultiHeadAttention:
		return oracleMHA{l}
	case *ChannelAffine:
		return oracleChannelAffine{l}
	case *Composite:
		inner := graph.NewModel(l.inner.Name + "_oracle")
		twin := map[*graph.Node]*graph.Node{}
		for _, n := range l.inner.Nodes() {
			if n.IsInput() {
				twin[n] = inner.AddInput(n.Name, n.Layer.(*graph.InputLayer).Shape...)
				continue
			}
			parents := make([]*graph.Node, len(n.Parents))
			for i, p := range n.Parents {
				parents[i] = twin[p]
			}
			twin[n] = inner.AddNode(n.Name, oracleOf(n.Layer), parents...)
			twin[n].Trainable = n.Trainable
		}
		inner.SetOutputs(twin[l.inner.Outputs[0]])
		o := *l
		o.inner, o.prog = inner, graph.Compile(inner, true)
		return &o
	}
	return l
}

func bitsEqual(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: got nil=%v, want nil=%v", label, got == nil, want == nil)
		return
	}
	if got == nil {
		return
	}
	gd, wd := got.Data(), want.Data()
	if len(gd) != len(wd) {
		t.Errorf("%s: length %d, want %d", label, len(gd), len(wd))
		return
	}
	for i := range gd {
		if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
			t.Errorf("%s[%d] = %v (bits %08x), want %v (bits %08x)", label, i,
				gd[i], math.Float32bits(gd[i]), wd[i], math.Float32bits(wd[i]))
			return
		}
	}
}

// assertMatchesOracle runs Forward+Backward in train and in eval mode and
// requires out, every input gradient and every parameter gradient to equal
// the oracle's bits.
func assertMatchesOracle(t *testing.T, label string, l graph.Layer, inputs []*tensor.Tensor) {
	t.Helper()
	assertMatchesOracleGrad(t, label, l, inputs, nil)
}

// assertMatchesOracleGrad is assertMatchesOracle with the output gradient
// drawn standard normal and then handed to plant, when plant is not nil.
func assertMatchesOracleGrad(t *testing.T, label string, l graph.Layer, inputs []*tensor.Tensor, plant func(*tensor.Tensor)) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	need := graph.BackwardNeed{Inputs: true, Params: true}
	ref := oracleOf(l)
	wantOut, wantCache := ref.Forward(inputs, false)
	g := tensor.RandNormal(rng, 1, wantOut.Shape()...)
	if plant != nil {
		plant(g)
	}
	wantIn, wantParams := ref.Backward(wantCache, inputs, wantOut, g.Clone(), need)
	for _, train := range []bool{true, false} {
		mode := fmt.Sprintf("%s train=%v", label, train)
		out, cache := l.Forward(inputs, train)
		bitsEqual(t, mode+" out", out, wantOut)
		gotIn, gotParams := l.Backward(cache, inputs, out, g.Clone(), need)
		for i := range wantIn {
			bitsEqual(t, fmt.Sprintf("%s dx%d", mode, i), gotIn[i], wantIn[i])
		}
		if len(gotParams) != len(wantParams) {
			t.Fatalf("%s: %d param grads, want %d", mode, len(gotParams), len(wantParams))
		}
		for i, p := range l.Params() {
			bitsEqual(t, mode+" d"+p.Name, gotParams[i], wantParams[i])
		}
	}
}

func TestFusedLayersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	acts := []string{ActNone, ActReLU, ActGeLU, ActTanh, ActSigmoid}
	for _, act := range acts {
		x := tensor.RandNormal(rng, 1, 3, 7, 6)
		assertMatchesOracle(t, "dense/"+act, NewDense(6, 5, act, 11), []*tensor.Tensor{x})
		assertMatchesOracle(t, "activation/"+act, NewActivation(act), []*tensor.Tensor{x})
		img := tensor.RandNormal(rng, 1, 2, 6, 5, 3)
		assertMatchesOracle(t, "conv2d/"+act, NewConv2D(3, 4, 3, 2, 1, act, 13), []*tensor.Tensor{img})
	}
	// Pointwise convs (1×1, stride 1, unpadded) read x in place and reshape
	// the column gradient; a padded or strided 1×1 conv keeps the lowering.
	// Each gets a nonzero bias (biases initialize to 0) and ±0, ±Inf and
	// NaNs in x, the bias and the output gradient. Under none and relu the
	// NaNs have distinct payloads, which meet the matmul's NaNs in the bias
	// add (tensor.BiasRows against AddRowVec) in both operand orders. The
	// transcendentals' row kernels and their scalar oracle need not agree
	// on a NaN's payload or sign (the oracle's math.Exp returns a NaN of
	// its own), so there the planted NaNs are left out.
	for _, act := range acts {
		for _, k := range [][2]int{{1, 0}, {2, 0}, {1, 1}} { // stride, pad
			l := NewConv2D(12, 8, 1, k[0], k[1], act, 43)
			bias := l.b.Tensor()
			copy(bias.Data(), tensor.RandNormal(rng, 1, 8).Data())
			img := tensor.RandNormal(rng, 1, 2, 6, 5, 12)
			plantAffineSpecials(img, nil, nil, 0)
			plantConvBias(bias)
			dropNaNs(act, img, bias)
			assertMatchesOracleGrad(t, fmt.Sprintf("conv2d_1x1/stride=%d/pad=%d/%s", k[0], k[1], act), l, []*tensor.Tensor{img},
				func(g *tensor.Tensor) { plantAffineSpecials(g, nil, nil, 1); dropNaNs(act, g) })
		}
	}

	// A nonzero bias, so the fused add is exercised (biases initialize to 0).
	d := NewDense(6, 5, ActGeLU, 17)
	copy(d.b.Tensor().Data(), tensor.RandNormal(rng, 1, 5).Data())
	assertMatchesOracle(t, "dense/gelu+bias", d, []*tensor.Tensor{tensor.RandNormal(rng, 1, 4, 6)})

	ad := NewAdapter(8, 3, 19)
	copy(ad.bd.Tensor().Data(), tensor.RandNormal(rng, 1, 3).Data())
	copy(ad.bu.Tensor().Data(), tensor.RandNormal(rng, 1, 8).Data())
	assertMatchesOracle(t, "adapter", ad, []*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 5, 8)})

	mha := NewMultiHeadAttention(8, 2, 27)
	for _, p := range mha.Params()[1:] { // bq, then every other one is a bias: nonzero, so the in-place add shows
		if p.Tensor().Rank() == 1 {
			copy(p.Tensor().Data(), tensor.RandNormal(rng, 1, 8).Data())
		}
	}
	assertMatchesOracle(t, "mha", mha, []*tensor.Tensor{tensor.RandNormal(rng, 1, 3, 5, 8)})

	for _, adapter := range []int{0, 4} {
		blk := NewTransformerBlock(TransformerBlockConfig{Seq: 5, Dim: 8, Heads: 2, FFN: 16, Seed: 29, Adapter: adapter, AdapterSeed: 31})
		assertMatchesOracle(t, fmt.Sprintf("transformer_block/adapter=%d", adapter), blk, []*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 5, 8)})
	}
	assertMatchesOracle(t, "residual_block",
		NewResidualBlock(ResidualBlockConfig{InH: 6, InW: 6, InC: 4, MidC: 3, OutC: 8, Stride: 2, Seed: 37}),
		[]*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 6, 6, 4)})

	// ChannelAffine at ResNet-mini widths (12 leaves a 4-channel tail after
	// the 8-lane block), on a few rows and on enough to fan out, with
	// specials planted in x, γ, β and the output gradient: NaNs of distinct
	// payloads meet in each multiply and add in both operand orders.
	for _, c := range []int{8, 12, 64} {
		for _, shape := range [][]int{{2, 3, 5, c}, {4, 32, 32, c}} {
			l := NewChannelAffine(c, 41)
			copy(l.beta.Tensor().Data(), tensor.RandNormal(rng, 1, c).Data())
			x := tensor.RandNormal(rng, 1, shape...)
			plantAffineSpecials(x, l.gamma.Tensor(), l.beta.Tensor(), 0)
			assertMatchesOracleGrad(t, fmt.Sprintf("channel_affine/%v", shape), l, []*tensor.Tensor{x},
				func(g *tensor.Tensor) { plantAffineSpecials(g, nil, nil, 1) })
		}
	}
}

// plantAffineSpecials writes ±0, ±Inf and NaNs of three payloads into
// every fifth row of m, channel j of row r getting specials[(r/5 + j +
// shift) % 7], and, when gamma and beta are given, NaNs of other payloads,
// -0 and ±Inf into them at channels of another period. So across rows
// every special of x meets every special of γ in the forward multiply in
// every lane of every channel block, the gradient's meet x's in dγ's
// multiply and γ's in dx's, and dγ's and dβ's NaN running sums meet NaN
// terms of other payloads. shift offsets the gradient's pattern from x's.
func plantAffineSpecials(m, gamma, beta *tensor.Tensor, shift int) {
	nan := math.Float32frombits
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	specials := []float32{0, negZero, inf, -inf, nan(0x7fc0000a), nan(0xffc0000b), nan(0x7fc0000c)}
	for r := 0; r < m.Rows(); r += 5 {
		for j := range m.Row(r) {
			m.Row(r)[j] = specials[(r/5+j+shift)%len(specials)]
		}
	}
	if gamma == nil {
		return
	}
	for j, g := range gamma.Data() {
		gamma.Data()[j] = []float32{g, negZero, inf, nan(0x7fc0000d), g, nan(0xffc0000e)}[j%6]
	}
	for j, b := range beta.Data() {
		beta.Data()[j] = []float32{b, nan(0x7fc0000f), b, -inf, b}[j%5]
	}
}

// plantConvBias writes NaNs of two payloads, -0, +Inf and -Inf into every
// other channel of a conv bias, the rest keeping their values.
func plantConvBias(bias *tensor.Tensor) {
	nan := math.Float32frombits
	specials := []float32{nan(0x7fc0000d), float32(math.Copysign(0, -1)), nan(0xffc0000e), float32(math.Inf(1)), float32(math.Inf(-1))}
	for j := 0; j < bias.Len(); j += 2 {
		bias.Data()[j] = specials[j/2%len(specials)]
	}
}

// dropNaNs replaces every NaN of ms by +Inf unless act is none or relu.
func dropNaNs(act string, ms ...*tensor.Tensor) {
	if act == ActNone || act == ActReLU {
		return
	}
	for _, m := range ms {
		for i, v := range m.Data() {
			if math.IsNaN(float64(v)) {
				m.Data()[i] = float32(math.Inf(1))
			}
		}
	}
}

// activationSweep is the float32 input set of the scalar identity test: a
// dense grid on [-12, 12], and every value within 8 ulps of the points
// where the implementations switch paths — 0, math.Tanh's polynomial/exp
// switch at |u| = 0.625 and its saturation at 0.5·MAXLOG (for tanh itself
// and, through u(x), for gelu), sigmoid′ underflowing float32 — plus ±0,
// ±Inf, NaN, subnormals and the float32 extremes.
func activationSweep() []float32 {
	var xs []float32
	for i := -12 * 256; i <= 12*256; i++ {
		xs = append(xs, float32(i)/256)
	}
	const halfMaxLog = 8.8029691931113054295988e+01 / 2
	pivots := []float64{0, 0.625, halfMaxLog, 87.34, 103.28} // last two: sigmoid′ leaves float32 normals, then subnormals
	for _, u := range []float64{0.625, halfMaxLog} {
		lo, hi := 0.0, 16.0 // solve geluC·(x + 0.044715x³) = u
		for i := 0; i < 80; i++ {
			mid := (lo + hi) / 2
			if geluC*(mid+0.044715*mid*mid*mid) < u {
				lo = mid
			} else {
				hi = mid
			}
		}
		pivots = append(pivots, lo)
	}
	for _, p := range pivots {
		for _, s := range []float32{float32(p), float32(-p)} {
			up, down := s, s
			xs = append(xs, s)
			for i := 0; i < 8; i++ {
				up = math.Nextafter32(up, float32(math.Inf(1)))
				down = math.Nextafter32(down, float32(math.Inf(-1)))
				xs = append(xs, up, down)
			}
		}
	}
	negZero := float32(math.Copysign(0, -1))
	return append(xs, 0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1.1754942e-38, -1.1754942e-38,
		math.MaxFloat32, -math.MaxFloat32)
}

// TestActivationScalarBitIdentity pins each activation's single definition
// to the oracle over the sweep: the emitted y, the cached act′ (train mode)
// and the backward product with g = 1 in both modes.
func TestActivationScalarBitIdentity(t *testing.T) {
	xs := activationSweep()
	z := tensor.FromSlice(xs, len(xs))
	ones := tensor.New(len(xs))
	ones.Fill(1)
	for _, act := range []string{ActGeLU, ActTanh, ActSigmoid, ActReLU} {
		wantY := applyActivation(act, z)
		wantD := activationBackward(act, z, ones)
		for _, train := range []bool{true, false} {
			mode := fmt.Sprintf("%s train=%v", act, train)
			l := NewActivation(act)
			out, cache := l.Forward([]*tensor.Tensor{z}, train)
			bitsEqual(t, mode+" y", out, wantY)
			if c := cache.(actCache); c.deriv {
				bitsEqual(t, mode+" cached act′", c.t, wantD)
			}
			gi, _ := l.Backward(cache, []*tensor.Tensor{z}, out, ones, graph.BackwardNeed{Inputs: true})
			bitsEqual(t, mode+" d", gi[0], wantD)
		}
	}
}

// TestDenseForwardScopeTensors pins the fusion's arena footprint: a dense
// forward with a transcendental activation takes two step-scope tensors
// (the matmul buffer, which ends up holding act′ or z, and out) where the
// unfused path took three (matmul, z, out); none/relu finish in the matmul
// buffer itself.
func TestDenseForwardScopeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		act  string
		want int
	}{{ActGeLU, 2}, {ActTanh, 2}, {ActSigmoid, 2}, {ActReLU, 1}, {ActNone, 1}} {
		for _, train := range []bool{true, false} {
			scope := tensor.NewArena().Scope()
			x := tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, 4, 6))
			NewDense(6, 5, tc.act, 43).Forward([]*tensor.Tensor{x}, train)
			if got := scope.Live(); got != tc.want {
				t.Errorf("dense/%s train=%v: forward took %d scope tensors, want %d", tc.act, train, got, tc.want)
			}
			scope.Release()
		}
	}
}

// TestDropoutForwardScopeTensors pins Dropout's train-mode footprint: at
// rate 0 it is the identity — its input back, no scope tensor — and at rate
// 0.5 it takes exactly two, the mask and out, both from the step scope.
func TestDropoutForwardScopeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, tc := range []struct {
		rate float64
		want int
	}{{0, 0}, {0.5, 2}} {
		scope := tensor.NewArena().Scope()
		x := tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, 4, 6))
		out, _ := NewDropout(tc.rate).Forward([]*tensor.Tensor{x}, true)
		if got := scope.Live(); got != tc.want {
			t.Errorf("rate %v: forward took %d scope tensors, want %d", tc.rate, got, tc.want)
		}
		if tc.rate == 0 && out != x {
			t.Error("rate 0: forward did not return its input")
		}
		scope.Release()
	}
}

// TestSharedLayersConcurrentSteps runs one instance of every layer type in
// the package through Forward(train) and Backward from two goroutines at
// once, as fused groups sharing a layer do. A layer keeps per-call state in
// its cache, never in its receiver, so -race must report nothing. It checks
// races only: a shared rate > 0 Dropout's masks depend on the interleaving.
func TestSharedLayersConcurrentSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	seq := tensor.RandNormal(rng, 0.5, 2, 3, 8)
	img := tensor.RandNormal(rng, 1, 2, 4, 4, 3)
	ids := tensor.FromSlice([]float32{1, 3, 5, 3, 0, 9}, 2, 3)
	one, two := []*tensor.Tensor{seq}, []*tensor.Tensor{seq, seq}
	steps := []struct {
		l  graph.Layer
		in []*tensor.Tensor
	}{
		{NewActivation(ActGeLU), one},
		{NewDropout(0.5), one},
		{NewMultiHeadAttention(8, 2, 61), one},
		{NewTransformerBlock(TransformerBlockConfig{Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 67, Adapter: 2, AdapterSeed: 71}), one},
		{NewResidualBlock(ResidualBlockConfig{InH: 4, InW: 4, InC: 3, MidC: 2, OutC: 6, Stride: 2, Seed: 73}), []*tensor.Tensor{img}},
		{NewAdapter(8, 2, 79), one},
		{NewConv2D(3, 4, 3, 1, 1, ActReLU, 83), []*tensor.Tensor{img}},
		{NewMaxPool2D(2, 2, 0), []*tensor.Tensor{img}},
		{NewGlobalAvgPool2D(), []*tensor.Tensor{img}},
		{NewDense(8, 5, ActTanh, 89), one},
		{NewEmbedding(10, 8, 97), []*tensor.Tensor{ids}},
		{NewPositionalEmbedding(3, 8, 101), one},
		{NewAdd(2), two},
		{NewConcat(2), two},
		{NewFlatten(), one},
		{NewMeanPoolSeq(), one},
		{NewLayerNorm(8), one},
		{NewChannelAffine(3, 103), []*tensor.Tensor{img}},
	}
	for _, s := range steps {
		// Two goroutines per layer, and nothing else between them: a race
		// on the layer cannot hide behind another layer's synchronization.
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, cache := s.l.Forward(s.in, true)
				g := tensor.New(out.Shape()...)
				g.Fill(1)
				s.l.Backward(cache, s.in, out, g, graph.BackwardNeed{Inputs: true, Params: true})
			}()
		}
		wg.Wait()
	}
}

// TestAttentionForwardScopeTensors pins attention's arena footprint to a
// count independent of batch×heads. Forward: q, k, v (biases added in
// their matmul buffers), the fused kernel's attn, ctx and scratch slab,
// out — where the per-head chain took six more per (batch, head). Backward:
// dwo, dbo, dctx and MatMulBT's packed operand, the fused kernel's dq, dk,
// dv and scratch slab, three weight and three bias gradients, and dx from
// three more MatMulBTs (two tensors each).
func TestAttentionForwardScopeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const forward, backward = 7, 20
	for _, sh := range []struct{ batch, heads int }{{1, 1}, {3, 2}, {5, 4}} {
		scope := tensor.NewArena().Scope()
		x := tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, sh.batch, 5, 8))
		g := tensor.WithAlloc(scope, tensor.RandNormal(rng, 1, sh.batch, 5, 8))
		l := NewMultiHeadAttention(8, sh.heads, 49)
		out, cache := l.Forward([]*tensor.Tensor{x}, true)
		if got := scope.Live(); got != forward {
			t.Errorf("batch %d heads %d: attention forward took %d scope tensors, want %d", sh.batch, sh.heads, got, forward)
		}
		l.Backward(cache, []*tensor.Tensor{x}, out, g, graph.BackwardNeed{Inputs: true, Params: true})
		if got := scope.Live() - forward; got != backward {
			t.Errorf("batch %d heads %d: attention backward took %d scope tensors, want %d", sh.batch, sh.heads, got, backward)
		}
		scope.Release()
	}
}

// The scalar definitions and the transcendental sweep as actSweep had them
// before the row kernels, verbatim: the reference for the call-shape matrix.

func scalarYD(act string) func(x float64) (y, d float64) {
	switch act {
	case ActGeLU:
		return func(x float64) (y, d float64) {
			u := geluC * (x + 0.044715*x*x*x)
			th := math.Tanh(u)
			du := geluC * (1 + 3*0.044715*x*x)
			return 0.5 * x * (1 + th), 0.5*(1+th) + 0.5*x*(1-th*th)*du
		}
	case ActTanh:
		return func(x float64) (y, d float64) {
			th := math.Tanh(x)
			return th, 1 - th*th
		}
	case ActSigmoid:
		return func(x float64) (y, d float64) {
			s := 1 / (1 + math.Exp(-x))
			return s, s * (1 - s)
		}
	}
	panic(fmt.Sprintf("layers: unknown activation %q", act))
}

func scalarSweep(act string, src *tensor.Tensor, bias []float32, out *tensor.Tensor, keep []float32, deriv bool) {
	sd, od, c := src.Data(), out.Data(), src.Cols()
	f := scalarYD(act)
	for r := 0; r < src.Rows(); r++ {
		for j := 0; j < c; j++ {
			i := r*c + j
			z := sd[i]
			if bias != nil {
				z += bias[j]
			}
			y, d := f(float64(z))
			od[i] = float32(y)
			if deriv {
				z = float32(d)
			}
			if keep != nil {
				keep[i] = z
			}
		}
	}
}

// TestActSweepCallShapes is the call-shape matrix: every width from 0 to 67
// (so every c mod 4 tail, with and without whole 4-blocks), bias nil and
// non-nil, keep nil / fresh / aliasing src, out fresh / aliasing src, train
// and eval, serial and fanned out over two workers; then none and relu at
// 1, 3, 8, 12 and 64 channels.
func TestActSweepCallShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	defer tensor.SetMaxWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetMaxWorkers(workers)
		widths := []int{0, 1, 3, 4, 5, 31, 64, 67}
		if workers == 1 {
			widths = widths[:0]
			for c := 0; c <= 67; c++ {
				widths = append(widths, c)
			}
		}
		for _, c := range widths {
			rows := 3
			if workers == 2 && c > 0 {
				rows = 8192/c + 1 // rows·c·8 reaches the fan-out threshold
			}
			x := tensor.RandNormal(rng, 2, rows, c)
			for i := range x.Data() {
				if rng.Intn(16) == 0 {
					x.Data()[i] = []float32{0, float32(math.Copysign(0, -1)), 40, -40}[rng.Intn(4)]
				}
			}
			for _, act := range []string{ActGeLU, ActTanh, ActSigmoid} {
				for shape := 0; shape < 24; shape++ {
					withBias, keepMode, outAlias, train := shape&1 == 1, shape>>1%3, shape/6&1 == 1, shape/12 == 1
					var bias []float32
					if withBias {
						bias = tensor.RandNormal(rng, 1, c).Data()
					}
					run := func(sweep func(string, *tensor.Tensor, []float32, *tensor.Tensor, []float32, bool)) (out *tensor.Tensor, keep []float32) {
						src := x.Clone()
						out = tensor.New(rows, c)
						if outAlias {
							out = src
						}
						switch keepMode {
						case 1:
							keep = make([]float32, rows*c)
						case 2:
							keep = src.Data()
						}
						sweep(act, src, bias, out, keep, train)
						return out, keep
					}
					label := fmt.Sprintf("%s c=%d workers=%d bias=%v keep=%d outAlias=%v train=%v", act, c, workers, withBias, keepMode, outAlias, train)
					got, gotKeep := run(actSweep)
					want, wantKeep := run(scalarSweep)
					bitsEqual(t, label+" out", got, want)
					if keepMode != 0 {
						bitsEqual(t, label+" keep", tensor.FromSlice(gotKeep, rows, c), tensor.FromSlice(wantKeep, rows, c))
					}
				}
			}
		}
	}
	// None and relu, which run once per chunk of rows (tensor.BiasRows,
	// tensor.ReLUClamp), at ResNet-mini's channel counts and tails of the
	// 8-lane block, against the scalar add and clamp: bias nil and not, out
	// fresh and aliasing src, serial and fanned out, with ±0, ±Inf and NaN
	// in src.
	for _, workers := range []int{1, 2} {
		tensor.SetMaxWorkers(workers)
		for _, c := range []int{1, 3, 8, 12, 64} {
			rows := 3
			if workers == 2 {
				rows = 1<<16/c + 1 // rows·c reaches the fan-out threshold
			}
			x := tensor.RandNormal(rng, 2, rows, c)
			for i := range x.Data() {
				if rng.Intn(8) == 0 {
					x.Data()[i] = []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(5)]
				}
			}
			for _, act := range []string{ActNone, ActReLU} {
				for shape := 0; shape < 4; shape++ {
					withBias, outAlias := shape&1 == 1, shape&2 == 2
					var bias []float32
					if withBias {
						bias = tensor.RandNormal(rng, 1, c).Data()
					}
					src := x.Clone()
					out := tensor.New(rows, c)
					if outAlias {
						out = src
					}
					want := x.Clone()
					for i, z := range want.Data() {
						if bias != nil {
							z += bias[i%c]
						}
						if act == ActReLU && !(z > 0) {
							z = 0
						}
						want.Data()[i] = z
					}
					actSweep(act, src, bias, out, nil, false)
					bitsEqual(t, fmt.Sprintf("%s c=%d workers=%d bias=%v outAlias=%v", act, c, workers, withBias, outAlias), out, want)
				}
			}
		}
	}
	// Zero-width rows: every activation, Rows() = 3 and nothing to sweep.
	for _, act := range []string{ActNone, ActReLU, ActGeLU, ActTanh, ActSigmoid} {
		x := tensor.New(3, 0)
		out, cache := NewActivation(act).Forward([]*tensor.Tensor{x}, true)
		if out.Rows() != 3 || out.Len() != 0 {
			t.Errorf("%s of a [3,0] tensor: %v", act, out)
		}
		NewActivation(act).Backward(cache, []*tensor.Tensor{x}, out, tensor.New(3, 0), graph.BackwardNeed{Inputs: true})
	}
}

// TestActSweepAllocations: the sweep itself allocates nothing per call —
// no temp rows, no per-chunk buffers. The one allocation counted is the
// closure tensor.Parallel takes, which every kernel built on it has had
// since before the row kernels.
func TestActSweepAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	x, out := tensor.RandNormal(rng, 1, 8, 67), tensor.New(8, 67)
	keep, bias := make([]float32, x.Len()), make([]float32, 67)
	for _, act := range []string{ActGeLU, ActTanh, ActSigmoid} {
		if n := testing.AllocsPerRun(50, func() { actSweep(act, x, bias, out, keep, true) }); n > 1 {
			t.Errorf("actSweep(%s): %v allocations per call, want at most the Parallel closure", act, n)
		}
	}
	if n := testing.AllocsPerRun(50, func() { tensor.SoftmaxRowsInto(out, x) }); n > 1 {
		t.Errorf("SoftmaxRowsInto: %v allocations per call, want at most the Parallel closure", n)
	}
}
