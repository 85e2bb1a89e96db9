package data

import (
	"fmt"
	"math/rand"

	"nautilus/internal/tensor"
)

// Augmenter transforms one record in place-free fashion: it receives the
// record's values and per-record shape and returns the augmented values.
// Augmenters must be deterministic given rng.
type Augmenter func(rng *rand.Rand, record []float32, shape []int) []float32

// AugmentPool expands a pool variants-fold: each record is followed by
// variants−1 augmented copies with the same label. This is the paper's
// prescription for augmentation support (Section 2.5): materialize an
// augmented dataset up front instead of augmenting on the fly, so
// intermediate-output materialization stays sound — every (possibly
// augmented) record is a fixed dataset row with a stable materialized
// feature.
func AugmentPool(p *Pool, variants int, seed int64, aug Augmenter) *Pool {
	if variants < 1 {
		panic(fmt.Sprintf("data: variants %d must be >= 1", variants))
	}
	rng := rand.New(rand.NewSource(seed))
	n := p.Size()
	recShape := p.X.Shape()[1:]
	recSize := tensor.NumElems(recShape)
	labelSize := p.Y.Len() / n

	xShape := append([]int{n * variants}, recShape...)
	x := tensor.New(xShape...)
	yShape := append([]int(nil), p.Y.Shape()...)
	yShape[0] = n * variants
	y := tensor.New(yShape...)

	for r := 0; r < n; r++ {
		src := p.X.Data()[r*recSize : (r+1)*recSize]
		lab := p.Y.Data()[r*labelSize : (r+1)*labelSize]
		for v := 0; v < variants; v++ {
			out := x.Data()[(r*variants+v)*recSize : (r*variants+v+1)*recSize]
			if v == 0 {
				copy(out, src)
			} else {
				copy(out, aug(rng, src, recShape))
			}
			copy(y.Data()[(r*variants+v)*labelSize:(r*variants+v+1)*labelSize], lab)
		}
	}
	return &Pool{Name: p.Name + fmt.Sprintf("+aug%d", variants), X: x, Y: y}
}

// Chain composes augmenters left to right.
func Chain(augs ...Augmenter) Augmenter {
	return func(rng *rand.Rand, record []float32, shape []int) []float32 {
		out := append([]float32(nil), record...)
		for _, a := range augs {
			out = a(rng, out, shape)
		}
		return out
	}
}

// HorizontalFlip mirrors an [H, W, C] image left-right with probability p.
func HorizontalFlip(p float64) Augmenter {
	return func(rng *rand.Rand, record []float32, shape []int) []float32 {
		if len(shape) != 3 {
			panic(fmt.Sprintf("data: HorizontalFlip expects [H,W,C], got %v", shape))
		}
		out := append([]float32(nil), record...)
		if rng.Float64() >= p {
			return out
		}
		h, w, c := shape[0], shape[1], shape[2]
		for i := 0; i < h; i++ {
			for j := 0; j < w/2; j++ {
				a := (i*w + j) * c
				b := (i*w + (w - 1 - j)) * c
				for k := 0; k < c; k++ {
					out[a+k], out[b+k] = out[b+k], out[a+k]
				}
			}
		}
		return out
	}
}

// PixelNoise adds N(0, std²) noise to every value.
func PixelNoise(std float64) Augmenter {
	return func(rng *rand.Rand, record []float32, shape []int) []float32 {
		out := append([]float32(nil), record...)
		for i := range out {
			out[i] += float32(rng.NormFloat64() * std)
		}
		return out
	}
}
