package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

// buildChain constructs in -> d1(frozen) -> d2(frozen) -> d3(trainable),
// a minimal feature-transfer shape.
func buildChain(t *testing.T) (*graph.Model, *graph.Node, *graph.Node, *graph.Node) {
	t.Helper()
	m := graph.NewModel("chain")
	in := m.AddInput("in", 4)
	d1 := m.AddNode("d1", layers.NewDense(4, 5, layers.ActTanh, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(5, 6, layers.ActTanh, 2), d1)
	d3 := m.AddNode("d3", layers.NewDense(6, 3, layers.ActNone, 3), d2)
	d3.Trainable = true
	m.SetOutputs(d3)
	return m, d1, d2, d3
}

func TestModelValidateAndShapes(t *testing.T) {
	m, _, _, d3 := buildChain(t)
	shapes, err := m.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(shapes[d3.Index()], []int{3}) {
		t.Errorf("output shape = %v, want [3]", shapes[d3.Index()])
	}
}

func TestModelNoOutputsInvalid(t *testing.T) {
	m := graph.NewModel("bad")
	m.AddInput("in", 2)
	if _, err := m.Validate(); err == nil {
		t.Error("model without outputs should fail validation")
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := graph.NewModel("dup")
	m.AddInput("x", 2)
	m.AddInput("x", 3)
}

func TestForeignParentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m1 := graph.NewModel("a")
	in := m1.AddInput("in", 2)
	m2 := graph.NewModel("b")
	m2.AddNode("d", layers.NewDense(2, 2, layers.ActNone, 1), in)
}

func TestForwardMissingFeedErrors(t *testing.T) {
	m, _, _, _ := buildChain(t)
	if _, err := m.Forward(map[string]*tensor.Tensor{}, false); err == nil {
		t.Error("missing feed should error")
	}
}

func TestForwardBackwardEndToEnd(t *testing.T) {
	m, _, _, d3 := buildChain(t)
	rng := rand.New(rand.NewSource(42))
	x := tensor.RandNormal(rng, 1, 2, 4)
	tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tape.Output(d3)
	if !tensor.ShapeEq(out.Shape(), []int{2, 3}) {
		t.Fatalf("output shape %v", out.Shape())
	}
	w := tensor.RandNormal(rng, 1, 2, 3)
	if err := tape.Backward(map[string]*tensor.Tensor{"d3": w}); err != nil {
		t.Fatal(err)
	}
	// Only the trainable head's params should have gradients.
	grads := tape.ParamGrads()
	d3params := d3.Layer.Params()
	if grads[d3params[0]] == nil || grads[d3params[1]] == nil {
		t.Error("trainable head should receive gradients")
	}
	if len(grads) != 2 {
		t.Errorf("got %d param grads, want 2 (frozen layers must not accumulate)", len(grads))
	}

	// Model-level finite-difference check on a head weight.
	wparam := d3params[0]
	loss := func() float64 {
		tp, _ := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
		return tensor.Sum(tensor.Mul(tp.Output(d3), w))
	}
	const eps = 1e-2
	i := 3
	orig := wparam.Tensor().Data()[i]
	wparam.Tensor().Data()[i] = orig + eps
	lp := loss()
	wparam.Tensor().Data()[i] = orig - eps
	lm := loss()
	wparam.Tensor().Data()[i] = orig
	num := (lp - lm) / (2 * eps)
	got := float64(grads[wparam].Data()[i])
	if math.Abs(num-got) > 1e-2*math.Max(1, math.Abs(num)) {
		t.Errorf("head grad: numeric %v vs analytic %v", num, got)
	}
}

func TestMaterializableAnalysis(t *testing.T) {
	// Definition 2.4: input and frozen-with-materializable-parents only.
	m := graph.NewModel("mat")
	in := m.AddInput("in", 4)
	f1 := m.AddNode("f1", layers.NewDense(4, 4, layers.ActNone, 1), in) // frozen
	tr := m.AddNode("tr", layers.NewDense(4, 4, layers.ActNone, 2), f1)
	tr.Trainable = true
	f2 := m.AddNode("f2", layers.NewDense(4, 4, layers.ActNone, 3), tr) // frozen but below trainable
	mix := m.AddNode("mix", layers.NewAdd(2), f1, f2)                   // one parent not materializable
	head := m.AddNode("head", layers.NewDense(4, 2, layers.ActNone, 4), mix)
	head.Trainable = true
	m.SetOutputs(head)

	mat := m.Materializable()
	want := map[string]bool{"in": true, "f1": true, "tr": false, "f2": false, "mix": false, "head": false}
	for name, v := range want {
		if mat[m.Node(name).Index()] != v {
			t.Errorf("materializable[%s] = %v, want %v", name, mat[m.Node(name).Index()], v)
		}
	}
}

func TestExprSignaturesMergeAcrossModels(t *testing.T) {
	// Two models sharing identical frozen trunks must produce identical
	// expression signatures for the shared prefix, and differ where the
	// models diverge.
	build := func(headSeed int64) *graph.Model {
		m := graph.NewModel("m")
		in := m.AddInput("in", 4)
		d1 := m.AddNode("d1", layers.NewDense(4, 5, layers.ActTanh, 100), in)
		d2 := m.AddNode("d2", layers.NewDense(5, 6, layers.ActTanh, 200), d1)
		h := m.AddNode("h", layers.NewDense(6, 2, layers.ActNone, headSeed), d2)
		h.Trainable = true
		m.SetOutputs(h)
		return m
	}
	a, b := build(1), build(2)
	sa, sb := a.ExprSignatures(), b.ExprSignatures()
	if sa[a.Node("d1").Index()] != sb[b.Node("d1").Index()] || sa[a.Node("d2").Index()] != sb[b.Node("d2").Index()] {
		t.Error("shared frozen trunk must have equal expression signatures")
	}
	if sa[a.Node("h").Index()] == sb[b.Node("h").Index()] {
		t.Error("different heads must have different signatures")
	}
	// Signatures must differ between consecutive depths.
	if sa[a.Node("d1").Index()] == sa[a.Node("d2").Index()] {
		t.Error("different depths must have different signatures")
	}
}

func TestFeedingIntermediateReproducesFullModel(t *testing.T) {
	// The reuse-plan invariant (paper Section 4.2.1): training a plan
	// model that loads a materialized intermediate is logically
	// equivalent to the original model.
	full, _, d2, d3 := buildChain(t)
	rng := rand.New(rand.NewSource(7))
	x := tensor.RandNormal(rng, 1, 3, 4)

	fullTape, err := full.Forward(map[string]*tensor.Tensor{"in": x}, true)
	if err != nil {
		t.Fatal(err)
	}
	d2out := fullTape.Output(d2)

	// Plan model: feed d2's output, keep only the head (sharing the same
	// layer instance, as Nautilus plans do).
	plan := graph.NewModel("plan")
	feed := plan.AddNode("feed_d2", graph.NewFeed("sig", 6))
	h := plan.AddNode("d3", d3.Layer, feed)
	h.Trainable = true
	plan.SetOutputs(h)

	planTape, err := plan.Forward(map[string]*tensor.Tensor{"feed_d2": d2out}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !planTape.Output(h).AllClose(fullTape.Output(d3), 1e-6) {
		t.Error("plan model output differs from full model")
	}

	// Gradients of the shared head must also match.
	g := tensor.RandNormal(rng, 1, 3, 3)
	if err := fullTape.Backward(map[string]*tensor.Tensor{"d3": g}); err != nil {
		t.Fatal(err)
	}
	if err := planTape.Backward(map[string]*tensor.Tensor{"d3": g}); err != nil {
		t.Fatal(err)
	}
	p := d3.Layer.Params()[0]
	if !fullTape.ParamGrads()[p].AllClose(planTape.ParamGrads()[p], 1e-5) {
		t.Error("plan model gradients differ from full model")
	}
}

func TestReachablePrunesDeadBranches(t *testing.T) {
	m := graph.NewModel("dead")
	in := m.AddInput("in", 4)
	live := m.AddNode("live", layers.NewDense(4, 2, layers.ActNone, 1), in)
	m.AddNode("dead", layers.NewDense(4, 3, layers.ActNone, 2), in)
	m.SetOutputs(live)
	r := m.Reachable()
	if len(r) != 2 {
		t.Fatalf("reachable = %d nodes, want 2", len(r))
	}
	// Forward must not execute the dead branch (it would show in acts).
	x := tensor.New(1, 4)
	tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
	if err != nil {
		t.Fatal(err)
	}
	if tape.Output(m.Node("dead")) != nil {
		t.Error("dead branch should not be computed")
	}
}

// TestReachableOrderOnMultiOutputDiamond: two outputs over one diamond, the
// second output listed first and a dead branch in the middle. Reachable
// visits the shared nodes once and returns insertion (topological) order
// whatever order the outputs and parents are walked in.
func TestReachableOrderOnMultiOutputDiamond(t *testing.T) {
	m := graph.NewModel("diamond")
	in := m.AddInput("in", 4)
	left := m.AddNode("left", layers.NewDense(4, 3, layers.ActTanh, 1), in)
	m.AddNode("dead", layers.NewDense(4, 3, layers.ActTanh, 2), in)
	right := m.AddNode("right", layers.NewDense(4, 3, layers.ActTanh, 3), in)
	join := m.AddNode("join", layers.NewAdd(2), right, left)
	out1 := m.AddNode("out1", layers.NewDense(3, 2, layers.ActNone, 4), join)
	out2 := m.AddNode("out2", layers.NewDense(3, 2, layers.ActNone, 5), left)
	m.AddNode("dead_tail", layers.NewDense(2, 2, layers.ActNone, 6), out2)
	m.SetOutputs(out2, out1)

	var got []string
	for _, n := range m.Reachable() {
		got = append(got, n.Name)
	}
	want := []string{"in", "left", "right", "join", "out1", "out2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Reachable = %v, want %v", got, want)
	}
	// A view whose only output is the inner join drops both heads.
	got = got[:0]
	for _, n := range m.WithOutputs(join).Reachable() {
		got = append(got, n.Name)
	}
	if strings.Join(got, " ") != "in left right join" {
		t.Errorf("Reachable of the join view = %v", got)
	}
}

func TestTrainableParamsAndCounts(t *testing.T) {
	m, _, _, _ := buildChain(t)
	tp := m.TrainableParams()
	if len(tp) != 2 {
		t.Fatalf("trainable params = %d, want 2", len(tp))
	}
	total, trainable := m.ParamCount()
	wantTotal := int64(4*5 + 5 + 5*6 + 6 + 6*3 + 3)
	if total != wantTotal {
		t.Errorf("total params = %d, want %d", total, wantTotal)
	}
	if trainable != int64(6*3+3) {
		t.Errorf("trainable params = %d, want %d", trainable, 6*3+3)
	}
}

func TestSharedLayerAcrossTwoNodes(t *testing.T) {
	// A fused model uses one layer instance under two branches; gradients
	// must accumulate across both uses.
	m := graph.NewModel("shared")
	in := m.AddInput("in", 3)
	shared := layers.NewDense(3, 3, layers.ActNone, 9)
	a := m.AddNode("a", shared, in)
	a.Trainable = true
	b := m.AddNode("b", layers.NewDense(3, 3, layers.ActNone, 10), a)
	b.Trainable = true
	c := m.AddNode("c", shared, b) // same instance again
	c.Trainable = true
	m.SetOutputs(c)

	rng := rand.New(rand.NewSource(11))
	x := tensor.RandNormal(rng, 1, 2, 3)
	tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, true)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.RandNormal(rng, 1, 2, 3)
	if err := tape.Backward(map[string]*tensor.Tensor{"c": g}); err != nil {
		t.Fatal(err)
	}
	w := shared.Params()[0]
	got := tape.ParamGrads()[w]
	if got == nil {
		t.Fatal("shared layer received no gradient")
	}
	// Finite difference on the shared weight must match the accumulated
	// gradient (both uses contribute).
	loss := func() float64 {
		tp, _ := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
		return tensor.Sum(tensor.Mul(tp.Output(c), g))
	}
	const eps = 1e-2
	i := 4
	orig := w.Tensor().Data()[i]
	w.Tensor().Data()[i] = orig + eps
	lp := loss()
	w.Tensor().Data()[i] = orig - eps
	lm := loss()
	w.Tensor().Data()[i] = orig
	num := (lp - lm) / (2 * eps)
	if math.Abs(num-float64(got.Data()[i])) > 2e-2*math.Max(1, math.Abs(num)) {
		t.Errorf("shared-layer grad: numeric %v vs analytic %v", num, got.Data()[i])
	}
}

func TestBackwardUnknownOutputErrors(t *testing.T) {
	m, _, _, _ := buildChain(t)
	x := tensor.New(1, 4)
	tape, _ := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
	if err := tape.Backward(map[string]*tensor.Tensor{"nope": tensor.New(1, 3)}); err == nil {
		t.Error("unknown output node should error")
	}
}

// TestBackwardNeedsTrainPass: an eval-mode pass keeps no derivative state,
// so a backward over it is an error, as a second backward over one
// train-mode pass is.
func TestBackwardNeedsTrainPass(t *testing.T) {
	m, _, _, _ := buildChain(t)
	feeds := map[string]*tensor.Tensor{"in": tensor.New(1, 4)}
	grads := map[string]*tensor.Tensor{"d3": tensor.New(1, 3)}
	for _, train := range []bool{false, true} {
		tape, err := m.Forward(feeds, train)
		if err != nil {
			t.Fatal(err)
		}
		if err := tape.Backward(grads); (err == nil) != train {
			t.Errorf("train=%v: backward error %v", train, err)
		}
		if err := tape.Backward(grads); err == nil {
			t.Errorf("train=%v: a second backward over one pass did not error", train)
		}
	}
}

func TestParamLazyMaterializationAndFingerprint(t *testing.T) {
	p := graph.NewParamNormal("w", 77, 0.1, 8, 8)
	if p.Materialized() {
		t.Error("param should start unmaterialized")
	}
	fpBefore := p.Fingerprint()
	q := graph.NewParamNormal("w", 77, 0.1, 8, 8)
	if q.Fingerprint() != fpBefore {
		t.Error("same spec must fingerprint equal before materialization")
	}
	r := graph.NewParamNormal("w", 78, 0.1, 8, 8)
	if r.Fingerprint() == fpBefore {
		t.Error("different seed must fingerprint differently")
	}
	// Materialization is deterministic per seed.
	if !p.Tensor().AllClose(q.Tensor(), 0) {
		t.Error("same seed must materialize identical tensors")
	}
	// Clone of materialized param is independent.
	c := p.Clone()
	c.Tensor().Data()[0] = 999
	if p.Tensor().Data()[0] == 999 {
		t.Error("clone must not share data")
	}
}

// TestRandomDAGEndToEndGradients is the engine-level property test: on
// random dense/concat DAGs with random trainability, every accumulated
// parameter gradient must match central finite differences of the full
// forward pass.
func TestRandomDAGEndToEndGradients(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := graph.NewModel("rnd")
		in := m.AddInput("in", 2+rng.Intn(3))
		width := map[*graph.Node]int{in: in.Layer.(*graph.InputLayer).Shape[0]}
		nodes := []*graph.Node{in}
		for i := 0; i < 2+rng.Intn(4); i++ {
			p := nodes[rng.Intn(len(nodes))]
			w := 2 + rng.Intn(3)
			n := m.AddNode(fmt.Sprintf("d%d", i),
				layers.NewDense(width[p], w, layers.ActTanh, rng.Int63()), p)
			n.Trainable = rng.Intn(2) == 0
			width[n] = w
			nodes = append(nodes, n)
		}
		out := nodes[len(nodes)-1]
		out.Trainable = true
		m.SetOutputs(out)

		x := tensor.RandNormal(rng, 1, 2, width[in])
		probe := tensor.RandNormal(rng, 1, 2, width[out])
		loss := func() float64 {
			tp, err := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
			if err != nil {
				t.Fatal(err)
			}
			return tensor.Sum(tensor.Mul(tp.Output(out), probe))
		}
		tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, true)
		if err != nil {
			return false
		}
		if err := tape.Backward(map[string]*tensor.Tensor{out.Name: probe}); err != nil {
			return false
		}
		for p, g := range tape.ParamGrads() {
			i := rng.Intn(p.NumElems())
			const eps = 1e-2
			orig := p.Tensor().Data()[i]
			p.Tensor().Data()[i] = orig + eps
			lp := loss()
			p.Tensor().Data()[i] = orig - eps
			lm := loss()
			p.Tensor().Data()[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(g.Data()[i])) > 3e-2*math.Max(1, math.Abs(num)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWithOutputsRestrictsExecution(t *testing.T) {
	m, d1, _, d3 := buildChain(t)
	view := m.WithOutputs(d1)
	x := tensor.New(1, 4)
	tape, err := view.Forward(map[string]*tensor.Tensor{"in": x}, false)
	if err != nil {
		t.Fatal(err)
	}
	if tape.Output(d1) == nil {
		t.Error("view output not computed")
	}
	if tape.Output(d3) != nil {
		t.Error("view must not compute beyond its outputs")
	}
	// The original model's outputs are untouched.
	if m.Outputs[0] != d3 {
		t.Error("WithOutputs mutated the original model")
	}
}

func TestTapeOutputsAndLiveBytes(t *testing.T) {
	m, d1, d2, d3 := buildChain(t)
	x := tensor.New(2, 4)
	tape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := tape.Output(d3); out == nil || !tensor.ShapeEq(out.Shape(), []int{2, 3}) {
		t.Error("output missing or misshapen")
	}
	// Only d3 trains, so x and d1 die at their child's forward step while
	// d2 waits for d3's backward: the peak is d1(2×5) + d2(2×6) = 22 floats.
	if got := tape.PeakBytes(); got != 22*4 {
		t.Errorf("peak live bytes = %d, want %d", got, 22*4)
	}
	if tape.Output(d1) != nil || tape.Output(d2) == nil {
		t.Errorf("d1 must be retired after d2's forward, d2 held for d3's backward")
	}
}

func TestParamReset(t *testing.T) {
	p := graph.NewParamNormal("w", 5, 1, 4)
	before := p.Tensor().Clone()
	p.Tensor().Data()[0] += 100 // simulate training
	p.Reset()
	if p.Materialized() {
		t.Error("reset should drop lazily-derived data")
	}
	if !p.Tensor().AllClose(before, 0) {
		t.Error("re-materialized values must equal the originals")
	}
	// Restored params keep their data through Reset.
	q := graph.NewParam("v", 2)
	q.SetData(tensor.FromSlice([]float32{7, 8}, 2))
	q.Reset()
	if q.Tensor().Data()[0] != 7 {
		t.Error("restored param must survive Reset")
	}
}

// TestParamFillsDrawNothing: a zero or one fill (biases, LayerNorm gains,
// re-initialized every cycle when trainable) builds its tensor — header and
// buffer — and no random source, which would be two more objects and ~5 KB.
func TestParamFillsDrawNothing(t *testing.T) {
	for _, p := range []*graph.Param{graph.NewParam("b", 64), graph.NewParamOnes("g", 64)} {
		if n := testing.AllocsPerRun(20, func() { p.Reset(); p.Tensor() }); n > 2 {
			t.Errorf("%s: %v allocations per re-initialization, want 2", p.Name, n)
		}
	}
}

// TestParamTensorConcurrentFirstUse has many goroutines take a shared
// (frozen) param's tensor at once, as concurrently trained fused groups do:
// the initializer must run once and everyone must see its tensor. Run under
// -race; before first-use init was once-safe this was a data race.
func TestParamTensorConcurrentFirstUse(t *testing.T) {
	want := graph.NewParamGlorot("w", 11, 16, 16).Tensor()
	for round := 0; round < 20; round++ {
		p := graph.NewParamGlorot("w", 11, 16, 16)
		got := make([]*tensor.Tensor, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = p.Tensor()
			}()
		}
		wg.Wait()
		for i, g := range got {
			if g != got[0] {
				t.Fatalf("round %d: goroutine %d saw a different tensor than goroutine 0", round, i)
			}
		}
		if !got[0].AllClose(want, 0) {
			t.Fatalf("round %d: concurrent first use initialized different values", round)
		}
		// Reset keeps its meaning: the next first use re-initializes.
		p.Reset()
		if p.Materialized() || !p.Tensor().AllClose(want, 0) {
			t.Fatalf("round %d: Reset after concurrent use did not restore the initial values", round)
		}
	}
}

func TestFeedKeyAndSignatureString(t *testing.T) {
	m := graph.NewModel("fk")
	feed := m.AddNode("f", graph.NewFeed("abc123", 4))
	plain := m.AddInput("in", 4)
	if feed.FeedKey() != "abc123" || plain.FeedKey() != "" {
		t.Error("feed keys wrong")
	}
	sigs := m.ExprSignatures()
	s := sigs[feed.Index()].String()
	if len(s) != 16 {
		t.Errorf("signature string %q should be 16 hex chars", s)
	}
}

func TestSummaryRendersTotals(t *testing.T) {
	m, _, _, _ := buildChain(t)
	s := m.Summary()
	for _, want := range []string{"Model: chain", "d3 (dense)", "total params:", "trainable: 21", "frozen"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// Partial trainability (adapter block) shows as "partial".
	am := graph.NewModel("a")
	in := am.AddInput("ids", 4, 8)
	blk := am.AddNode("blk", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 1, Adapter: 2, AdapterSeed: 2,
	}), in)
	blk.Trainable = true
	am.SetOutputs(blk)
	if !strings.Contains(am.Summary(), "partial") {
		t.Error("adapter block should render as partially trainable")
	}
}
