package models

import (
	"fmt"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

func miniHub() *BERTHub { return NewBERTHub(BERTMini()) }

func TestBERTFeatureTransferStrategies(t *testing.T) {
	h := miniHub()
	for _, strat := range []FeatureStrategy{
		FeatEmbedding, FeatSecondLastHidden, FeatLastHidden,
		FeatSumLast4, FeatConcatLast4, FeatSumAll,
	} {
		m, err := h.FeatureTransferModel("ftr_"+string(strat), strat, 5, 42)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		shapes, err := m.Validate()
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		out := shapes[m.Outputs[0].Index()]
		if !tensor.ShapeEq(out, []int{h.Cfg.Seq, 5}) {
			t.Errorf("%s: output shape %v, want [%d 5]", strat, out, h.Cfg.Seq)
		}
		// Feature transfer freezes the whole trunk: only head params train.
		mat := m.Materializable()
		for i := 1; i <= h.Cfg.Blocks; i++ {
			n := m.Node(fmt.Sprintf("block_%d", i))
			if !mat[n.Index()] {
				t.Errorf("%s: trunk block_%d should be materializable", strat, i)
			}
		}
		if mat[m.Node("head_block").Index()] || mat[m.Node("classifier").Index()] {
			t.Errorf("%s: head must not be materializable", strat)
		}
	}
}

func TestBERTFeatureTransferForwardAndTrainStep(t *testing.T) {
	h := miniHub()
	m, err := h.FeatureTransferModel("ftr", FeatConcatLast4, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	batch := 2
	ids := tensor.New(batch, h.Cfg.Seq)
	for i := range ids.Data() {
		ids.Data()[i] = float32(rng.Intn(h.Cfg.Vocab))
	}
	tape, err := m.Forward(map[string]*tensor.Tensor{"ids": ids}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tape.Output(m.Outputs[0])
	if !tensor.ShapeEq(out.Shape(), []int{batch, h.Cfg.Seq, 3}) {
		t.Fatalf("output shape %v", out.Shape())
	}
	g := tensor.RandNormal(rng, 0.1, out.Shape()...)
	if err := tape.Backward(map[string]*tensor.Tensor{m.Outputs[0].Name: g}); err != nil {
		t.Fatal(err)
	}
	// Gradients must cover exactly the trainable params.
	want := map[*graph.Param]bool{}
	for _, p := range m.TrainableParams() {
		want[p] = true
	}
	for p := range tape.ParamGrads() {
		if !want[p] {
			t.Errorf("unexpected gradient for frozen param %q", p.Name)
		}
	}
	if len(tape.ParamGrads()) != len(want) {
		t.Errorf("got %d grads, want %d", len(tape.ParamGrads()), len(want))
	}
}

func TestBERTAdapterRangeErrors(t *testing.T) {
	h := miniHub()
	if _, err := h.AdapterModel("bad", 99, 4, 2, 1); err == nil {
		t.Error("out-of-range adaptTop should error")
	}
	if _, err := h.AdapterModel("bad", 0, 4, 2, 1); err == nil {
		t.Error("adaptTop 0 should error")
	}
}

func TestBERTAdapterModelTrainsOnlyAdaptersAndHead(t *testing.T) {
	h := miniHub()
	m, err := h.AdapterModel("atr", 2, 4, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	total, trainable := m.ParamCount()
	if trainable >= total/2 {
		t.Errorf("adapter model trains %d of %d params; should be a small fraction", trainable, total)
	}
	// Adapted blocks are not materializable, lower blocks are.
	mat := m.Materializable()
	if !mat[m.Node("block_2").Index()] {
		t.Error("unadapted block_2 should be materializable")
	}
	if mat[m.Node("block_3").Index()] {
		t.Error("adapted block_3 must not be materializable")
	}
}

func TestSharedTrunkSignaturesMatchAcrossCandidates(t *testing.T) {
	// The heart of multi-model merging: two candidates from the same hub
	// must agree on frozen-trunk expression signatures even when one uses
	// shared instances and the other fresh copies.
	h := miniHub()
	a, _ := h.FeatureTransferModel("a", FeatLastHidden, 3, 1)
	b, _ := h.AdapterModel("b", 1, 4, 3, 2)
	sa, sb := a.ExprSignatures(), b.ExprSignatures()
	for i := 1; i <= h.Cfg.Blocks-1; i++ {
		name := fmt.Sprintf("block_%d", i)
		if sa[a.Node(name).Index()] != sb[b.Node(name).Index()] {
			t.Errorf("%s signatures differ across candidates", name)
		}
	}
	// The adapted top block differs (trainable fresh instance).
	top := fmt.Sprintf("block_%d", h.Cfg.Blocks)
	if sa[a.Node(top).Index()] == sb[b.Node(top).Index()] {
		t.Error("frozen vs trainable top block must differ in signature")
	}
}

func TestFreshBlockMatchesSharedWeights(t *testing.T) {
	h := miniHub()
	shared := h.blocks[0]
	fresh := h.freshBlock(0, 0, 0)
	sp, fp := shared.Params(), fresh.Params()
	if len(sp) != len(fp) {
		t.Fatalf("param counts differ: %d vs %d", len(sp), len(fp))
	}
	for i := range sp {
		if sp[i].Fingerprint() != fp[i].Fingerprint() {
			t.Errorf("param %q differs between shared and fresh block", sp[i].Name)
		}
	}
}

func TestResNetFineTuneModel(t *testing.T) {
	h := NewResNetHub(ResNetMini())
	total := len(h.blocks)
	for _, tuneTop := range []int{0, 1, total} {
		m, err := h.FineTuneModel(fmt.Sprintf("ftu_%d", tuneTop), tuneTop, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		shapes, err := m.Validate()
		if err != nil {
			t.Fatalf("tuneTop=%d: %v", tuneTop, err)
		}
		if !tensor.ShapeEq(shapes[m.Outputs[0].Index()], []int{2}) {
			t.Errorf("output shape %v, want [2]", shapes[m.Outputs[0].Index()])
		}
		mat := m.Materializable()
		frozenBlocks := 0
		for i := 1; i <= total; i++ {
			if mat[m.Node(fmt.Sprintf("block_%d", i)).Index()] {
				frozenBlocks++
			}
		}
		if frozenBlocks != total-tuneTop {
			t.Errorf("tuneTop=%d: %d materializable blocks, want %d", tuneTop, frozenBlocks, total-tuneTop)
		}
	}
}

func TestResNetForwardBackward(t *testing.T) {
	h := NewResNetHub(ResNetMini())
	m, err := h.FineTuneModel("ftu", 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	img := tensor.RandNormal(rng, 1, 2, 16, 16, 3)
	tape, err := m.Forward(map[string]*tensor.Tensor{"img": img}, true)
	if err != nil {
		t.Fatal(err)
	}
	out := tape.Output(m.Outputs[0])
	if !tensor.ShapeEq(out.Shape(), []int{2, 2}) {
		t.Fatalf("output shape %v", out.Shape())
	}
	g := tensor.RandNormal(rng, 0.1, out.Shape()...)
	if err := tape.Backward(map[string]*tensor.Tensor{m.Outputs[0].Name: g}); err != nil {
		t.Fatal(err)
	}
	if len(tape.ParamGrads()) == 0 {
		t.Error("expected gradients for tuned blocks and head")
	}
}

func TestResNet50Shape(t *testing.T) {
	cfg := ResNet50()
	blocks := 0
	for _, b := range cfg.StageBlocks {
		blocks += b
	}
	if blocks != 16 {
		t.Errorf("ResNet-50 has %d blocks, want 16", blocks)
	}
	// Structural build (no weight materialization) must validate at paper
	// scale: this exercises the lazy-parameter design.
	h := NewResNetHub(cfg)
	m, err := h.FineTuneModel("ftu", 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := m.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(shapes[m.Node("gap").Index()], []int{2048}) {
		t.Errorf("GAP output %v, want [2048]", shapes[m.Node("gap").Index()])
	}
	total, _ := m.ParamCount()
	if total < 20_000_000 {
		t.Errorf("ResNet-50 scale params = %d, want > 20M", total)
	}
}

func TestBERTBaseStructuralScale(t *testing.T) {
	h := NewBERTHub(BERTBase())
	m, err := h.FeatureTransferModel("ftr", FeatLastHidden, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	total, _ := m.ParamCount()
	// BERT-base trunk is ~110M params (embeddings + 12 blocks).
	if total < 80_000_000 {
		t.Errorf("BERT-base scale params = %d, want > 80M", total)
	}
	// Lazy params: building at paper scale must not materialize weights.
	for _, p := range h.emb.Params() {
		if p.Materialized() {
			t.Error("hub construction must not materialize paper-scale weights")
		}
	}
}

func TestAdapterBlockComposition(t *testing.T) {
	// An adapter block trains exactly its adapters.
	blk := layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 12, Dim: 32, Heads: 2, FFN: 64, Seed: 5, Adapter: 8, AdapterSeed: 77,
	})
	if len(blk.Inner().TrainableParams()) != 8 {
		t.Errorf("adapter block trainable subset = %d params, want 8", len(blk.Inner().TrainableParams()))
	}
}
