package train

import (
	"math"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/opt"
	"nautilus/internal/tensor"
)

func TestSoftmaxCrossEntropyValueAndGrad(t *testing.T) {
	logits := tensor.FromSlice([]float32{2, 0, 0, 0, 3, 0}, 2, 3)
	labels := tensor.FromSlice([]float32{0, 1}, 2)
	loss, grad := SoftmaxCrossEntropy{}.Compute(logits, labels)
	// Row losses: -log(softmax_correct).
	want := 0.0
	for r, y := range []int{0, 1} {
		p := tensor.SoftmaxRows(logits).Row(r)[y]
		want -= math.Log(float64(p))
	}
	want /= 2
	if math.Abs(loss-want) > 1e-6 {
		t.Errorf("loss = %v, want %v", loss, want)
	}
	// Gradient rows sum to zero (softmax-CE property).
	for r := 0; r < 2; r++ {
		var s float64
		for _, v := range grad.Row(r) {
			s += float64(v)
		}
		if math.Abs(s) > 1e-6 {
			t.Errorf("grad row %d sums to %v", r, s)
		}
	}
}

func TestSoftmaxCrossEntropyGradFiniteDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.RandNormal(rng, 1, 4, 5)
	labels := tensor.FromSlice([]float32{0, 2, 4, 1}, 4)
	_, grad := SoftmaxCrossEntropy{}.Compute(logits, labels)
	const eps = 1e-3
	for i := 0; i < logits.Len(); i += 3 {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy{}.Compute(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy{}.Compute(logits, labels)
		logits.Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("grad[%d]: numeric %v vs analytic %v", i, num, grad.Data()[i])
		}
	}
}

func TestCrossEntropyTokenLevel(t *testing.T) {
	// [batch=2, seq=3, classes=2] with [2,3] labels exercises the NER path.
	rng := rand.New(rand.NewSource(2))
	logits := tensor.RandNormal(rng, 1, 2, 3, 2)
	labels := tensor.FromSlice([]float32{0, 1, 0, 1, 1, 0}, 2, 3)
	loss, grad := SoftmaxCrossEntropy{}.Compute(logits, labels)
	if loss <= 0 {
		t.Error("random logits should have positive loss")
	}
	if !tensor.ShapeEq(grad.Shape(), logits.Shape()) {
		t.Errorf("grad shape %v", grad.Shape())
	}
	acc := SoftmaxCrossEntropy{}.Accuracy(logits, labels)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %v out of range", acc)
	}
}

func TestAccuracyExact(t *testing.T) {
	logits := tensor.FromSlice([]float32{1, 0, 0, 1, 0.6, 0.4}, 3, 2)
	labels := tensor.FromSlice([]float32{0, 1, 1}, 3)
	acc := SoftmaxCrossEntropy{}.Accuracy(logits, labels)
	if math.Abs(acc-2.0/3) > 1e-9 {
		t.Errorf("accuracy = %v, want 2/3", acc)
	}
}

// trainToy fits y = argmax over a linear map of x and returns the loss on
// the whole set after training. batch > 0 trains on shuffled mini-batches
// of that size, assembled the way the trainer assembles them (Batches,
// GatherIn); batch == 0 steps on the full set.
func trainToy(t *testing.T, opt Optimizer, steps, batch int) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	m := graph.NewModel("toy")
	in := m.AddInput("in", 4)
	h := m.AddNode("h", layers.NewDense(4, 16, layers.ActTanh, 5), in)
	h.Trainable = true
	o := m.AddNode("o", layers.NewDense(16, 3, layers.ActNone, 6), h)
	o.Trainable = true
	m.SetOutputs(o)

	// Planted linear task.
	n := 64
	x := tensor.RandNormal(rng, 1, n, 4)
	y := tensor.New(n)
	for r := 0; r < n; r++ {
		xr := x.Row(r)
		s0 := xr[0] + xr[1]
		s1 := xr[2] - xr[3]
		switch {
		case s0 > s1 && s0 > 0:
			y.Data()[r] = 0
		case s1 > 0:
			y.Data()[r] = 1
		default:
			y.Data()[r] = 2
		}
	}

	loss := func(xb, yb *tensor.Tensor, train bool) (float64, *graph.Tape) {
		tape, err := m.Forward(map[string]*tensor.Tensor{"in": xb}, train)
		if err != nil {
			t.Fatal(err)
		}
		l, grad := SoftmaxCrossEntropy{}.Compute(tape.Output(o), yb)
		if train {
			if err := tape.Backward(map[string]*tensor.Tensor{"o": grad}); err != nil {
				t.Fatal(err)
			}
		}
		return l, tape
	}
	shuffle := rand.New(rand.NewSource(4))
	var epoch [][]int
	for i := 0; i < steps; i++ {
		xb, yb := x, y
		if batch > 0 {
			if len(epoch) == 0 {
				epoch = Batches(n, batch, shuffle)
			}
			xb, yb = GatherIn(nil, x, epoch[0]), GatherIn(nil, y, epoch[0])
			epoch = epoch[1:]
		}
		_, tape := loss(xb, yb, true)
		opt.Step(tape.ParamGrads())
	}
	final, _ := loss(x, y, false)
	return final
}

// Stochastic gradient descent in the sense the trainer runs it: shuffled
// mini-batches gathered per step, each followed by an Adam update.
func TestSGDConverges(t *testing.T) {
	final := trainToy(t, NewAdam(0.01), 200, 16)
	if final > 0.25 {
		t.Errorf("mini-batch final loss %v, want < 0.25", final)
	}
}

func TestAdamConverges(t *testing.T) {
	final := trainToy(t, NewAdam(0.01), 150, 0)
	if final > 0.25 {
		t.Errorf("Adam final loss %v, want < 0.25", final)
	}
}

func TestAdamBeatsUntrained(t *testing.T) {
	initial := trainToy(t, NewAdam(0), 1, 0) // zero LR: no learning
	trained := trainToy(t, NewAdam(0.01), 100, 0)
	if trained >= initial {
		t.Errorf("training did not reduce loss: %v -> %v", initial, trained)
	}
}

// TestOptimizerStateBytes ties FUSE OPT's B_mem bound to the optimizer the
// trainer runs: after one step Adam holds exactly opt.AdamSlotBytes bytes of
// moment state per trainable parameter byte.
func TestOptimizerStateBytes(t *testing.T) {
	params := []*graph.Param{graph.NewParamNormal("w", 1, 1, 10), graph.NewParamNormal("b", 2, 1, 3)}
	grads := map[*graph.Param]*tensor.Tensor{}
	var paramBytes int64
	for _, p := range params {
		grads[p] = tensor.New(p.Shape...)
		paramBytes += p.Bytes()
	}
	o := NewAdam(0.1)
	o.Step(grads)
	var state int64
	for _, slots := range []map[*graph.Param]*tensor.Tensor{o.m, o.v} {
		for _, s := range slots {
			state += 4 * int64(s.Len())
		}
	}
	if want := opt.AdamSlotBytes * paramBytes; state != want {
		t.Errorf("adam state = %d bytes, want opt.AdamSlotBytes × %d = %d", state, paramBytes, want)
	}
}

func TestBatchesCoverAllRecords(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	batches := Batches(10, 3, rng)
	if len(batches) != 4 {
		t.Fatalf("got %d batches, want 4", len(batches))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d appears twice", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 10 {
		t.Errorf("covered %d records, want 10", len(seen))
	}
	if len(batches[3]) != 1 {
		t.Errorf("last batch size %d, want 1", len(batches[3]))
	}
}

func TestGather(t *testing.T) {
	x := tensor.FromSlice([]float32{0, 0, 1, 1, 2, 2, 3, 3}, 4, 2)
	g := GatherIn(nil, x, []int{2, 0})
	if g.At(0, 0) != 2 || g.At(1, 1) != 0 {
		t.Errorf("gather = %v", g.Data())
	}
	if !tensor.ShapeEq(g.Shape(), []int{2, 2}) {
		t.Errorf("gather shape = %v", g.Shape())
	}
}

func TestBatchesDeterministicPerSeed(t *testing.T) {
	a := Batches(20, 4, rand.New(rand.NewSource(9)))
	b := Batches(20, 4, rand.New(rand.NewSource(9)))
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same seed must produce same batch order")
			}
		}
	}
}
