package models

import (
	"testing"

	"nautilus/internal/profile"
)

// TestBERTBaseFLOPsMatchPublishedNumbers cross-checks the analytical cost
// model against external ground truth: BERT-base forward inference is
// ≈22.5 GFLOPs per 128-token sequence (Clark et al., "ELECTRA", and
// common profiler outputs), i.e. ≈1.8 GFLOPs per transformer block.
func TestBERTBaseFLOPsMatchPublishedNumbers(t *testing.T) {
	hub := NewBERTHub(BERTBase())
	m, err := hub.FeatureTransferModel("flops", FeatLastHidden, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	block := prof.Layer(m.Node("block_1"))
	gf := float64(block.ForwardFLOPs) / 1e9
	if gf < 1.4 || gf > 2.4 {
		t.Errorf("per-block forward = %.2f GFLOPs, expected ≈1.8", gf)
	}
	// Whole frozen trunk (12 blocks + embeddings) ≈ 22 GFLOPs.
	var trunk int64
	for _, n := range m.Nodes() {
		if prof.Layer(n).Materializable {
			trunk += prof.Layer(n).ForwardFLOPs
		}
	}
	tg := float64(trunk) / 1e9
	if tg < 17 || tg > 29 {
		t.Errorf("trunk forward = %.1f GFLOPs, expected ≈22", tg)
	}
	// Block output: 128×768 floats = 393 KB, the 100X-larger-than-input
	// blowup the paper cites for materialized intermediates.
	if block.OutBytes != 128*768*4 {
		t.Errorf("block output bytes = %d, want %d", block.OutBytes, 128*768*4)
	}
	inputBytes := prof.Layer(m.Node("ids")).OutBytes
	if ratio := float64(block.OutBytes) / float64(inputBytes); ratio < 100 {
		t.Errorf("intermediate/input size ratio = %.0f, paper cites up to 100X", ratio)
	}
}

// TestResNet50FLOPsMatchPublishedNumbers: ResNet-50 forward inference is
// ≈4.1 GMACs at 224² input; published "FLOPs" counts usually report MACs.
// Our cost model counts 2 FLOPs per multiply-add, so at 128² input the
// expectation is 4.1 × (128/224)² × 2 ≈ 2.7 GFLOPs.
func TestResNet50FLOPsMatchPublishedNumbers(t *testing.T) {
	hub := NewResNetHub(ResNet50())
	m, err := hub.FineTuneModel("flops", 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	var fwd int64
	for _, n := range m.Nodes() {
		fwd += prof.Layer(n).ForwardFLOPs
	}
	gf := float64(fwd) / 1e9
	if gf < 2.0 || gf > 3.5 {
		t.Errorf("ResNet-50@128 forward = %.2f GFLOPs, expected ≈2.7", gf)
	}
}
