package data

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nautilus/internal/tensor"
)

func TestAugmentPoolExpandsAndPreservesLabels(t *testing.T) {
	p := SynthImages(ImageConfig{Records: 10, H: 8, W: 8, C: 3, Seed: 1})
	aug := AugmentPool(p, 3, 7, HorizontalFlip(1.0))
	if aug.Size() != 30 {
		t.Fatalf("augmented size %d, want 30", aug.Size())
	}
	// Every variant keeps its source's label, and the original record is
	// the first of each triple.
	rec := 8 * 8 * 3
	for r := 0; r < 10; r++ {
		for v := 0; v < 3; v++ {
			if aug.Y.Data()[r*3+v] != p.Y.Data()[r] {
				t.Fatalf("label changed for record %d variant %d", r, v)
			}
		}
		orig := p.X.Data()[r*rec : (r+1)*rec]
		kept := aug.X.Data()[r*3*rec : (r*3+1)*rec]
		for i := range orig {
			if orig[i] != kept[i] {
				t.Fatal("variant 0 must be the unmodified record")
			}
		}
	}
}

func TestHorizontalFlipInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{4, 6, 2}
		rec := tensor.RandNormal(rng, 1, shape...).Data()
		flip := HorizontalFlip(1.0)
		once := flip(rand.New(rand.NewSource(1)), rec, shape)
		twice := flip(rand.New(rand.NewSource(1)), once, shape)
		for i := range rec {
			if rec[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHorizontalFlipZeroProbabilityIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shape := []int{3, 3, 1}
	rec := tensor.RandNormal(rng, 1, shape...).Data()
	out := HorizontalFlip(0)(rng, rec, shape)
	for i := range rec {
		if out[i] != rec[i] {
			t.Fatal("p=0 flip must be identity")
		}
	}
}

func TestChainComposesInOrder(t *testing.T) {
	add := func(delta float32) Augmenter {
		return func(_ *rand.Rand, r []float32, _ []int) []float32 {
			out := append([]float32(nil), r...)
			for i := range out {
				out[i] += delta
			}
			return out
		}
	}
	double := func(_ *rand.Rand, r []float32, _ []int) []float32 {
		out := append([]float32(nil), r...)
		for i := range out {
			out[i] *= 2
		}
		return out
	}
	chained := Chain(add(1), double)
	out := chained(rand.New(rand.NewSource(1)), []float32{1}, []int{1})
	if out[0] != 4 { // (1+1)*2
		t.Errorf("chain result %v, want 4", out[0])
	}
}

func TestAugmentPoolDeterministic(t *testing.T) {
	p1 := SynthImages(ImageConfig{Records: 6, H: 8, W: 8, C: 3, Seed: 9})
	p2 := SynthImages(ImageConfig{Records: 6, H: 8, W: 8, C: 3, Seed: 9})
	aug := Chain(HorizontalFlip(0.5), PixelNoise(0.05))
	a := AugmentPool(p1, 2, 11, aug)
	b := AugmentPool(p2, 2, 11, aug)
	if !a.X.AllClose(b.X, 0) {
		t.Error("augmentation must be deterministic per seed")
	}
}

func TestAugmentPoolVariantsValidation(t *testing.T) {
	p := SynthImages(ImageConfig{Records: 2, H: 4, W: 4, C: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for variants < 1")
		}
	}()
	AugmentPool(p, 0, 1, HorizontalFlip(1))
}
