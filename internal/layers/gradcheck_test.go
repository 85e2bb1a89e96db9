package layers

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// compiled runs a composite block the way the executor does: spliced by
// graph.Compile into the model x → front → block, both nodes trainable,
// front a trainable layer standing in for the block's upstream. As a
// graph.Kernel over that program's parameters (front's, then the block's)
// it takes a block through the layer checks: front's parameter gradients
// are made from the gradient the block hands its input, so a finite
// difference on them checks that gradient too. Its own input gets none.
type compiled struct {
	*Composite
	front graph.Kernel
	prog  *graph.Program
	out   *graph.Node
}

func compile(blk *Composite, front graph.Kernel) compiled {
	m := graph.NewModel(blk.Type())
	in := m.AddInput("x", blk.inner.Inputs()[0].Layer.(*graph.InputLayer).Shape...)
	f := m.AddNode("front", front, in)
	out := m.AddNode("block", blk, f)
	f.Trainable, out.Trainable = true, true
	m.SetOutputs(out)
	return compiled{Composite: blk, front: front, prog: graph.Compile(m), out: out}
}

func (c compiled) Params() []*graph.Param { return c.prog.Params() }

func (c compiled) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	tape := c.prog.Run(inputs, graph.ForwardOptions{Train: train})
	return tape.Output(c.out), tape
}

func (c compiled) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	tape := cache.(*graph.Tape)
	if err := tape.BackwardOutputs([]*tensor.Tensor{gradOut}); err != nil {
		panic(err)
	}
	grads := make([]*tensor.Tensor, len(c.prog.Params()))
	for k := range grads {
		grads[k] = tape.ParamGradAt(k)
	}
	return make([]*tensor.Tensor, len(inputs)), grads
}

// lossOf computes the probe loss Σ w·out used by gradient checks.
func lossOf(l graph.Kernel, inputs []*tensor.Tensor, w *tensor.Tensor) float64 {
	out, _ := l.Forward(inputs, false)
	return tensor.Sum(tensor.Mul(out, w))
}

// checkGrads verifies a layer's analytic gradients, after a train-mode
// forward, against central finite differences of the eval-mode loss on a
// sample of input and parameter coordinates. skipInputs lists input indices
// that carry no gradient (e.g. token ids).
func checkGrads(t *testing.T, l graph.Kernel, inputs []*tensor.Tensor, skipInputs ...int) {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	out, cache := l.Forward(inputs, true)
	w := tensor.RandNormal(rng, 1, out.Shape()...)
	gradIn, gradParams := l.Backward(cache, inputs, out, w, graph.BackwardNeed{Inputs: true, Params: true})

	skip := map[int]bool{}
	for _, i := range skipInputs {
		skip[i] = true
	}
	// Shrinking steps: a mismatch at one step size may be a ReLU/max kink
	// crossing; it passes if any step agrees (kinks are measure-zero, so
	// smaller steps stop crossing them).
	steps := []struct{ eps, tol float64 }{{1e-2, 2e-2}, {2e-3, 3e-2}, {5e-4, 8e-2}}

	check := func(label string, data []float32, analytic *tensor.Tensor) {
		t.Helper()
		if analytic == nil {
			t.Errorf("%s: analytic gradient is nil", label)
			return
		}
		n := len(data)
		samples := 12
		if n < samples {
			samples = n
		}
		for s := 0; s < samples; s++ {
			i := rng.Intn(n)
			got := float64(analytic.Data()[i])
			ok := false
			var lastNum float64
			for _, st := range steps {
				orig := data[i]
				data[i] = orig + float32(st.eps)
				lp := lossOf(l, inputs, w)
				data[i] = orig - float32(st.eps)
				lm := lossOf(l, inputs, w)
				data[i] = orig
				num := (lp - lm) / (2 * st.eps)
				lastNum = num
				scale := math.Max(1, math.Max(math.Abs(num), math.Abs(got)))
				if math.Abs(num-got)/scale <= st.tol {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s[%d]: numeric %.5f vs analytic %.5f", label, i, lastNum, got)
			}
		}
	}

	for i, in := range inputs {
		if skip[i] {
			continue
		}
		check("input"+string(rune('0'+i)), in.Data(), gradIn[i])
	}
	for i, p := range l.Params() {
		check("param:"+p.Name, p.Tensor().Data(), gradParams[i])
	}
}

// checkOutShape verifies that the inferred shape matches the actual
// forward output (with the batch dimension stripped).
func checkOutShape(t *testing.T, l graph.Kernel, inputs []*tensor.Tensor) {
	t.Helper()
	in := make([][]int, len(inputs))
	for i, x := range inputs {
		in[i] = x.Shape()[1:]
	}
	want := l.OutShape(in)
	out, _ := l.Forward(inputs, false)
	got := out.Shape()[1:]
	if !tensor.ShapeEq(got, want) {
		t.Errorf("OutShape = %v but forward produced %v", want, got)
	}
	if flops := l.FLOPsPerRecord(in); flops < 0 {
		t.Errorf("negative FLOPs estimate %d", flops)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, act := range []string{ActNone, ActReLU, ActGeLU, ActTanh, ActSigmoid} {
		l := NewDense(5, 4, act, 7)
		x := tensor.RandNormal(rng, 1, 3, 5)
		checkOutShape(t, l, []*tensor.Tensor{x})
		checkGrads(t, l, []*tensor.Tensor{x})
	}
}

func TestDense3DInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewDense(6, 3, ActGeLU, 9)
	x := tensor.RandNormal(rng, 1, 2, 4, 6) // [batch, seq, dim]
	out, _ := l.Forward([]*tensor.Tensor{x}, false)
	if !tensor.ShapeEq(out.Shape(), []int{2, 4, 3}) {
		t.Fatalf("dense 3D output shape = %v", out.Shape())
	}
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestDenseBackwardHonoursNeedFlags(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewDense(4, 4, ActNone, 5)
	x := tensor.RandNormal(rng, 1, 2, 4)
	out, cache := l.Forward([]*tensor.Tensor{x}, true)
	g := tensor.RandNormal(rng, 1, out.Shape()...)
	gi, gp := l.Backward(cache, []*tensor.Tensor{x}, out, g, graph.BackwardNeed{Inputs: false, Params: true})
	if gi[0] != nil {
		t.Error("input grad should be nil when not needed")
	}
	if gp[0] == nil || gp[1] == nil {
		t.Error("param grads should be present when needed")
	}
	gi, gp = l.Backward(cache, []*tensor.Tensor{x}, out, g, graph.BackwardNeed{Inputs: true, Params: false})
	if gi[0] == nil {
		t.Error("input grad should be present when needed")
	}
	if gp[0] != nil {
		t.Error("param grads should be nil when not needed")
	}
}

// NewEmbedding returns an embedding layer initialized from N(0, 0.02²), the
// BERT convention.
func NewEmbedding(vocab, dim int, seed int64) *Embedding {
	return &Embedding{Vocab: vocab, Dim: dim, table: graph.NewParamNormal("table", seed, 0.02, vocab, dim)}
}

func TestEmbeddingGradients(t *testing.T) {
	l := NewEmbedding(10, 4, 3)
	ids := tensor.FromSlice([]float32{1, 3, 5, 3, 0, 9}, 2, 3)
	checkOutShape(t, l, []*tensor.Tensor{ids})
	checkGrads(t, l, []*tensor.Tensor{ids}, 0)
	// Repeated id 3 must accumulate gradient from both positions.
	out, cache := l.Forward([]*tensor.Tensor{ids}, true)
	g := tensor.New(out.Shape()...)
	g.Fill(1)
	_, gp := l.Backward(cache, []*tensor.Tensor{ids}, out, g, graph.BackwardNeed{Inputs: false, Params: true})
	row3 := gp[0].Row(3)
	for _, v := range row3 {
		if v != 2 {
			t.Fatalf("embedding grad for repeated id = %v, want 2", v)
		}
	}
}

func TestEmbeddingOutOfVocabPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-vocab id")
		}
	}()
	l := NewEmbedding(4, 2, 1)
	l.Forward([]*tensor.Tensor{tensor.FromSlice([]float32{7}, 1, 1)}, false)
}

func TestPositionalEmbeddingGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewPositionalEmbedding(3, 4, 11)
	x := tensor.RandNormal(rng, 1, 2, 3, 4)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLayerNorm(6)
	x := tensor.RandNormal(rng, 2, 3, 6)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

// TestNormBackwardHonoursNeed: LayerNorm and ChannelAffine skip what
// BackwardNeed says nobody reads, and what they do produce has the bits of
// the all-true call.
func TestNormBackwardHonoursNeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, l := range map[string]graph.Kernel{"layer_norm": NewLayerNorm(6), "channel_affine": NewChannelAffine(6, 3)} {
		in := []*tensor.Tensor{tensor.RandNormal(rng, 1, 3, 4, 6)}
		out, cache := l.Forward(in, true)
		g := tensor.RandNormal(rng, 1, out.Shape()...)
		wantIn, wantParams := l.Backward(cache, in, out, g, graph.BackwardNeed{Inputs: true, Params: true})
		for _, need := range []graph.BackwardNeed{{Inputs: true}, {Params: true}, {}} {
			label := fmt.Sprintf("%s need=%+v", name, need)
			gotIn, gotParams := l.Backward(cache, in, out, g, need)
			ifNeeded := func(needed bool, want *tensor.Tensor) *tensor.Tensor {
				if needed {
					return want
				}
				return nil
			}
			bitsEqual(t, label+" dx", gotIn[0], ifNeeded(need.Inputs, wantIn[0]))
			for i := range wantParams {
				bitsEqual(t, label+" dparam", gotParams[i], ifNeeded(need.Params, wantParams[i]))
			}
		}
	}
}

// layerNormBackwardSerial is LayerNorm.Backward before its dx rows fanned
// out, verbatim: one ascending pass over the rows doing both jobs.
func layerNormBackwardSerial(l *LayerNorm, c lnCache, x, gradOut *tensor.Tensor, need graph.BackwardNeed) (dx, dgamma, dbeta *tensor.Tensor) {
	rows, d := x.Rows(), l.Dim
	g := l.gamma.Tensor().Data()
	if need.Params {
		dgamma, dbeta = tensor.NewFrom(gradOut, l.Dim), tensor.NewFrom(gradOut, l.Dim)
	}
	if need.Inputs {
		dx = tensor.NewFrom(gradOut, x.Shape()...)
	}
	for r := 0; r < rows; r++ {
		gr, hr := gradOut.Row(r), c.xhat.Row(r)
		if need.Params {
			dg, db := dgamma.Data(), dbeta.Data()
			for j := 0; j < d; j++ {
				dg[j] += gr[j] * hr[j]
				db[j] += gr[j]
			}
		}
		if !need.Inputs {
			continue
		}
		var sumDh, sumDhH float64
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(g[j])
			sumDh += dh
			sumDhH += dh * float64(hr[j])
		}
		inv := float64(c.invStd.Data()[r])
		nd := float64(d)
		dr := dx.Row(r)
		for j := 0; j < d; j++ {
			dh := float64(gr[j]) * float64(g[j])
			dr[j] = float32(inv * (dh - sumDh/nd - float64(hr[j])*sumDhH/nd))
		}
	}
	return dx, dgamma, dbeta
}

// TestLayerNormBackwardFanOutBits: dx rows computed under
// tensor.LayerNormGradRows' fan-out (384×32·8 work is past the threshold at
// a cap of 2) and the dgamma/dbeta reduction in its own serial pass carry
// the serial body's bits, for every BackwardNeed. Some input and gradient rows hold zeros of
// both signs, ±Inf and NaN.
func TestLayerNormBackwardFanOutBits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := NewLayerNorm(32)
	copy(l.gamma.Tensor().Data(), tensor.RandNormal(rng, 1, 32).Data())
	in := []*tensor.Tensor{tensor.RandNormal(rng, 2, 32, 12, 32)}
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	x := in[0].Data()
	for r, v := range specials { // rows 0-4: one special each in the input
		x[r*32+r] = v
	}
	out, cache := l.Forward(in, true)
	g := tensor.RandNormal(rng, 1, out.Shape()...)
	for r := 5; r < 5+len(specials); r++ { // rows 5-9: every special in the gradient
		for j, v := range specials {
			g.Data()[r*32+(r+7*j)%32] = v
		}
	}
	defer tensor.SetMaxWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetMaxWorkers(workers)
		for _, need := range []graph.BackwardNeed{{Inputs: true, Params: true}, {Inputs: true}, {Params: true}, {}} {
			label := fmt.Sprintf("workers=%d need=%+v", workers, need)
			wantDx, wantDg, wantDb := layerNormBackwardSerial(l, cache.(lnCache), in[0], g, need)
			gotIn, gotParams := l.Backward(cache, in, out, g, need)
			bitsEqual(t, label+" dx", gotIn[0], wantDx)
			bitsEqual(t, label+" dgamma", gotParams[0], wantDg)
			bitsEqual(t, label+" dbeta", gotParams[1], wantDb)
		}
	}
}

// TestLayerNormForwardScopeTensors pins the forward's arena footprint, in
// the style of TestDenseForwardScopeTensors: a train forward takes out,
// xhat and invStd from the step scope; an eval forward takes only out,
// returns a nil cache and, in a recycled scope, allocates nothing.
func TestLayerNormForwardScopeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewLayerNorm(6)
	heapX := tensor.RandNormal(rng, 1, 4, 6)
	for _, train := range []bool{true, false} {
		scope := tensor.NewArena().Scope()
		_, cache := l.Forward([]*tensor.Tensor{tensor.WithAlloc(scope, heapX)}, train)
		want := 3
		if !train {
			want = 1
			if cache != nil {
				t.Errorf("eval forward kept a cache: %v", cache)
			}
		}
		if got := scope.Live(); got != want {
			t.Errorf("train=%v: forward took %d scope tensors, want %d", train, got, want)
		}
		scope.Release()
	}
	scope := tensor.NewArena().Scope()
	defer scope.Release()
	in := make([]*tensor.Tensor, 1)
	eval := func() {
		in[0] = tensor.WithAlloc(scope, heapX)
		l.Forward(in, false)
		scope.Recycle()
	}
	eval()
	if n := testing.AllocsPerRun(50, eval); n != 0 {
		t.Errorf("eval forward in a recycled scope: %v allocations, want 0", n)
	}
}

func TestLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLayerNorm(8)
	x := tensor.RandNormal(rng, 5, 4, 8)
	out, _ := l.Forward([]*tensor.Tensor{x}, false)
	for r := 0; r < out.Rows(); r++ {
		var mean float64
		for _, v := range out.Row(r) {
			mean += float64(v)
		}
		mean /= 8
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean = %v, want ~0", r, mean)
		}
	}
}

func TestChannelAffineGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewChannelAffine(5, 13)
	x := tensor.RandNormal(rng, 1, 4, 5)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestActivationGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, act := range []string{ActReLU, ActGeLU, ActTanh, ActSigmoid} {
		l := NewActivation(act)
		x := tensor.RandNormal(rng, 1, 3, 4)
		// Nudge values away from the ReLU kink.
		for i, v := range x.Data() {
			if math.Abs(float64(v)) < 0.05 {
				x.Data()[i] = 0.1
			}
		}
		checkOutShape(t, l, []*tensor.Tensor{x})
		checkGrads(t, l, []*tensor.Tensor{x})
	}
}

func TestAddConcatGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := tensor.RandNormal(rng, 1, 2, 3)
	b := tensor.RandNormal(rng, 1, 2, 3)
	c := tensor.RandNormal(rng, 1, 2, 3)
	add := NewAdd(3)
	checkOutShape(t, add, []*tensor.Tensor{a, b, c})
	checkGrads(t, add, []*tensor.Tensor{a, b, c})

	d := tensor.RandNormal(rng, 1, 2, 5)
	cat := NewConcat(2)
	checkOutShape(t, cat, []*tensor.Tensor{a, d})
	checkGrads(t, cat, []*tensor.Tensor{a, d})
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewMultiHeadAttention(8, 2, 21)
	x := tensor.RandNormal(rng, 0.5, 2, 4, 8)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, tc := range []struct{ k, stride, pad int }{{1, 1, 0}, {3, 1, 1}, {3, 2, 1}} {
		l := NewConv2D(2, 3, tc.k, tc.stride, tc.pad, ActNone, 31)
		x := tensor.RandNormal(rng, 1, 2, 5, 5, 2)
		checkOutShape(t, l, []*tensor.Tensor{x})
		checkGrads(t, l, []*tensor.Tensor{x})
	}
}

func TestConv2DWithReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := NewConv2D(2, 2, 3, 1, 1, ActReLU, 33)
	x := tensor.RandNormal(rng, 1, 1, 4, 4, 2)
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestMaxPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l := NewMaxPool2D(2, 2, 0)
	x := tensor.RandNormal(rng, 3, 1, 4, 4, 2) // large std avoids near-ties
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := NewGlobalAvgPool2D()
	x := tensor.RandNormal(rng, 1, 2, 3, 3, 4)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
}

func TestAdapterGradientsAndNearIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l := NewAdapter(6, 2, 41)
	x := tensor.RandNormal(rng, 1, 2, 3, 6)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x})
	// Freshly initialized adapters are near the identity function.
	out, _ := l.Forward([]*tensor.Tensor{x}, false)
	if !out.AllClose(x, 0.05) {
		t.Error("fresh adapter should be close to identity")
	}
}

func TestTransformerBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := compile(NewTransformerBlock(TransformerBlockConfig{Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 51}), NewChannelAffine(8, 52))
	x := tensor.RandNormal(rng, 0.5, 2, 3, 8)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x}, 0)
}

func TestResidualBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := compile(NewResidualBlock(ResidualBlockConfig{InH: 4, InW: 4, InC: 3, MidC: 2, OutC: 6, Stride: 2, Seed: 61}), NewChannelAffine(3, 62))
	x := tensor.RandNormal(rng, 1, 1, 4, 4, 3)
	checkOutShape(t, l, []*tensor.Tensor{x})
	checkGrads(t, l, []*tensor.Tensor{x}, 0)
}

func TestAdapterBlockTrainsOnlyAdapters(t *testing.T) {
	blk := NewTransformerBlock(TransformerBlockConfig{
		Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 71, Adapter: 2, AdapterSeed: 99,
	})
	sub := blk.Inner().TrainableParams()
	if len(sub) != 8 { // 2 adapters × 4 params
		t.Fatalf("trainable subset has %d params, want 8", len(sub))
	}
	for _, p := range sub {
		if p.Name != "adapter1.wd" && p.Name != "adapter1.bd" && p.Name != "adapter1.wu" && p.Name != "adapter1.bu" &&
			p.Name != "adapter2.wd" && p.Name != "adapter2.bd" && p.Name != "adapter2.wu" && p.Name != "adapter2.bu" {
			t.Errorf("unexpected trainable param %q", p.Name)
		}
	}
	// Backward must produce grads only for the adapters (and the trainable
	// front, whose gradient crosses the frozen base).
	l := compile(blk, NewChannelAffine(8, 72))
	trainSet := map[*graph.Param]bool{}
	for _, p := range append(sub, l.front.Params()...) {
		trainSet[p] = true
	}
	rng := rand.New(rand.NewSource(19))
	x := tensor.RandNormal(rng, 0.5, 1, 3, 8)
	out, cache := l.Forward([]*tensor.Tensor{x}, true)
	g := tensor.RandNormal(rng, 1, out.Shape()...)
	_, gp := l.Backward(cache, []*tensor.Tensor{x}, out, g, graph.BackwardNeed{Inputs: true, Params: true})
	for i, p := range l.Params() {
		if trainSet[p] && gp[i] == nil {
			t.Errorf("trainable param %q got no gradient", p.Name)
		}
		if !trainSet[p] && gp[i] != nil {
			t.Errorf("frozen param %q got a gradient", p.Name)
		}
	}
}

func TestCompositeFLOPsAndActivationBytes(t *testing.T) {
	l := NewTransformerBlock(TransformerBlockConfig{Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 81})
	in := [][]int{{4, 8}}
	flops := l.FLOPsPerRecord(in)
	if flops <= 0 {
		t.Fatal("composite FLOPs should be positive")
	}
	// MHA alone: 8·s·d² + 4·s²·d = 8·4·64 + 4·16·8 = 2560.
	mha := NewMultiHeadAttention(8, 2, 1)
	if flops <= mha.FLOPsPerRecord(in) {
		t.Error("block FLOPs must exceed its attention sub-layer")
	}
	bytes := l.ActivationBytesPerRecord(in)
	outBytes := int64(4 * 8 * 4)
	if bytes <= outBytes {
		t.Errorf("composite activation bytes %d should exceed plain output %d", bytes, outBytes)
	}
}

// TestCompositeFactsMatchInnerModel: the four per-record facts a composite
// computes once at construction equal the per-call recomputation they
// replaced (a walk over the inner model's inferred shapes), OutShape hands
// out a fresh slice, and it still rejects any input shape but the inner
// model's own.
func TestCompositeFactsMatchInnerModel(t *testing.T) {
	blocks := map[string]*Composite{
		"transformer": NewTransformerBlock(TransformerBlockConfig{Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 81}),
		"adapter":     NewTransformerBlock(TransformerBlockConfig{Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 81, Adapter: 4, AdapterSeed: 7}),
		"residual":    NewResidualBlock(ResidualBlockConfig{InH: 6, InW: 6, InC: 4, MidC: 2, OutC: 8, Stride: 2, Seed: 5}),
	}
	for name, c := range blocks {
		inner := c.Inner()
		shapes, err := inner.Validate()
		if err != nil {
			t.Fatal(err)
		}
		var flops, trainable, actBytes int64
		for _, n := range inner.Nodes() {
			if n.IsInput() {
				continue
			}
			ins := make([][]int, len(n.Parents))
			for i, p := range n.Parents {
				ins[i] = shapes[p.Index()]
			}
			f := n.Layer.FLOPsPerRecord(ins)
			flops += f
			if !n.Frozen() {
				trainable += f
			}
			actBytes += graph.ActivationBytesPerRecord(n, ins)
		}
		in := [][]int{inner.Inputs()[0].Layer.(*graph.InputLayer).Shape}
		if got := c.FLOPsPerRecord(in); got != flops {
			t.Errorf("%s: FLOPsPerRecord %d, inner model says %d", name, got, flops)
		}
		if got := c.TrainableFLOPsPerRecord(in); got != trainable {
			t.Errorf("%s: TrainableFLOPsPerRecord %d, inner model says %d", name, got, trainable)
		}
		if got := c.ActivationBytesPerRecord(in); got != actBytes {
			t.Errorf("%s: ActivationBytesPerRecord %d, inner model says %d", name, got, actBytes)
		}
		out := c.OutShape(in)
		if !tensor.ShapeEq(out, shapes[inner.Outputs[0].Index()]) {
			t.Errorf("%s: OutShape %v, inner model says %v", name, out, shapes[inner.Outputs[0].Index()])
		}
		out[0] = -1
		if again := c.OutShape(in); again[0] == -1 {
			t.Errorf("%s: OutShape returned its cached slice", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: OutShape accepted a foreign input shape", name)
				}
			}()
			c.OutShape([][]int{{3, 3}})
		}()
	}
	if f := blocks["adapter"].TrainableFLOPsPerRecord(nil); f <= 0 || f >= blocks["adapter"].FLOPsPerRecord(nil) {
		t.Errorf("adapter block: trainable FLOPs %d should be a proper part of %d", f, blocks["adapter"].FLOPsPerRecord(nil))
	}
}

func TestLayerIdentitySignatures(t *testing.T) {
	// Same type+config+seed ⇒ same signature; differing seed or
	// trainability ⇒ different.
	mkNode := func(seed int64, trainable bool) *graph.Node {
		m := graph.NewModel("m")
		in := m.AddInput("in", 4)
		n := m.AddNode("d", NewDense(4, 2, ActNone, seed), in)
		n.Trainable = trainable
		return n
	}
	a := graph.LayerSignature(mkNode(5, false))
	b := graph.LayerSignature(mkNode(5, false))
	c := graph.LayerSignature(mkNode(6, false))
	d := graph.LayerSignature(mkNode(5, true))
	if a != b {
		t.Error("identical frozen layers must share a signature")
	}
	if a == c {
		t.Error("different seeds must differ")
	}
	if a == d {
		t.Error("frozen vs trainable must differ")
	}
}
