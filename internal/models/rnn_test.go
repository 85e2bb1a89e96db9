package models

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

func TestUnrolledRNNStructure(t *testing.T) {
	hub := NewRNNHub(RNNMini())
	m, err := hub.UnrolledClassifier("rnn", 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// ids + emb + h0 + seq×(select + cell) + pool + classifier.
	want := 3 + 2*hub.Cfg.Seq + 2
	if m.NumNodes() != want {
		t.Errorf("nodes = %d, want %d", m.NumNodes(), want)
	}
	// Every unrolled timestep shares ONE cell instance.
	cellParams := map[*graph.Param]bool{}
	for _, n := range m.Nodes() {
		if n.Layer.Type() == "rnn_cell" {
			for _, p := range n.Layer.Params() {
				cellParams[p] = true
			}
		}
	}
	if len(cellParams) != 3 {
		t.Errorf("cell params = %d distinct, want 3 (shared instance)", len(cellParams))
	}
	// The frozen unrolled trunk is materializable end to end.
	mat := m.Materializable()
	if !mat[m.Node(fmt.Sprintf("h_%d", hub.Cfg.Seq)).Index()] {
		t.Error("final hidden state should be materializable")
	}
	if mat[m.Node("classifier").Index()] {
		t.Error("trainable head must not be materializable")
	}
}

func TestUnrolledRNNBPTTGradient(t *testing.T) {
	// Back-propagation through time: the shared cell's weight gradient
	// must match finite differences through the full unrolled graph.
	cfg := RNNConfig{Vocab: 32, Seq: 4, Dim: 6, Hidden: 5, Seed: 9}
	hub := NewRNNHub(cfg)
	m, err := hub.UnrolledClassifier("rnn", 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Unfreeze the cell so it accumulates gradients.
	for _, n := range m.Nodes() {
		if n.Layer.Type() == "rnn_cell" {
			n.Trainable = true
		}
	}
	rng := rand.New(rand.NewSource(3))
	ids := tensor.New(2, cfg.Seq)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(cfg.Vocab))
	}
	w := tensor.RandNormal(rng, 1, 2, 3)
	loss := func() float64 {
		tape, err := m.Forward(map[string]*tensor.Tensor{"ids": ids}, false)
		if err != nil {
			t.Fatal(err)
		}
		return tensor.Sum(tensor.Mul(tape.Output(m.Outputs[0]), w))
	}

	tape, err := m.Forward(map[string]*tensor.Tensor{"ids": ids}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := tape.Backward(map[string]*tensor.Tensor{"classifier": w}); err != nil {
		t.Fatal(err)
	}
	wh := hub.cell.Params()[1] // recurrent weight, touched at every step
	got := tape.ParamGrads()[wh]
	if got == nil {
		t.Fatal("no BPTT gradient for the recurrent weight")
	}
	const eps = 1e-2
	for _, i := range []int{0, 7, 13} {
		orig := wh.Tensor().Data()[i]
		wh.Tensor().Data()[i] = orig + eps
		lp := loss()
		wh.Tensor().Data()[i] = orig - eps
		lm := loss()
		wh.Tensor().Data()[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(got.Data()[i])) > 2e-2*math.Max(1, math.Abs(num)) {
			t.Errorf("BPTT grad[%d]: numeric %v vs analytic %v", i, num, got.Data()[i])
		}
	}
}

func TestUnrolledRNNLearnsSequenceTask(t *testing.T) {
	// Planted task: does the sequence contain a token from the upper half
	// of the vocabulary? The frozen trunk + trainable head must learn it.
	cfg := RNNConfig{Vocab: 64, Seq: 8, Dim: 16, Hidden: 24, Seed: 21}
	hub := NewRNNHub(cfg)
	m, err := hub.UnrolledClassifier("rnn", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	n := 160
	x := tensor.New(n, cfg.Seq)
	y := tensor.New(n)
	for r := 0; r < n; r++ {
		hasHigh := false
		for s := 0; s < cfg.Seq; s++ {
			var tok int
			if r%2 == 0 && s == rng.Intn(cfg.Seq) {
				tok = cfg.Vocab/2 + rng.Intn(cfg.Vocab/2)
			} else {
				tok = rng.Intn(cfg.Vocab / 2)
			}
			if tok >= cfg.Vocab/2 {
				hasHigh = true
			}
			x.Set(float32(tok), r, s)
		}
		if hasHigh {
			y.Data()[r] = 1
		}
	}
	optm := train.NewAdam(5e-3)
	var lossVal float64
	for step := 0; step < 120; step++ {
		tape, err := m.Forward(map[string]*tensor.Tensor{"ids": x}, true)
		if err != nil {
			t.Fatal(err)
		}
		var grad *tensor.Tensor
		lossVal, grad = train.SoftmaxCrossEntropy{}.Compute(tape.Output(m.Outputs[0]), y)
		if err := tape.Backward(map[string]*tensor.Tensor{"classifier": grad}); err != nil {
			t.Fatal(err)
		}
		optm.Step(tape.ParamGrads())
	}
	if lossVal > 0.45 {
		t.Errorf("unrolled RNN failed to learn: loss %v", lossVal)
	}
}

func TestUnrolledRNNWorksWithNautilusOptimizer(t *testing.T) {
	// Two RNN candidates with different heads share the entire unrolled
	// trunk; the materialization optimizer must merge and exploit it.
	hub := NewRNNHub(RNNConfig{Vocab: 64, Seq: 6, Dim: 8, Hidden: 8, Seed: 31})
	var items []opt.WorkItem
	var ms []*graph.Model
	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e10, WorkspaceBytes: 1 << 28}
	for i := 0; i < 2; i++ {
		m, err := hub.UnrolledClassifier(fmt.Sprintf("rnn%d", i), 2, int64(40+i))
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Profile(m, hw)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, opt.WorkItem{Model: m, Prof: prof, Epochs: 3, BatchSize: 8, LR: 1e-3})
		ms = append(ms, m)
	}
	multi, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	// The shared trunk (emb + h0 + all timesteps) merges.
	perModel := ms[0].NumNodes() + ms[1].NumNodes()
	if multi.Graph.NumNodes() >= perModel {
		t.Error("unrolled trunks did not merge")
	}
	res, err := opt.OptimizeMaterialization(multi, items, opt.MatConfig{
		DiskBudgetBytes: 1 << 40, MaxRecords: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Materialized) == 0 {
		t.Error("expected the optimizer to materialize the shared recurrent trunk")
	}
	for _, plan := range res.Plans {
		if _, _, loaded := plan.CountActions(); loaded == 0 {
			t.Error("plan should load materialized hidden states")
		}
	}
}
