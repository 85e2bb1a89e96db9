package train

import (
	"math/rand"

	"nautilus/internal/tensor"
)

// Batches splits n records into shuffled mini-batch index slices of the
// given size. The final batch may be smaller. The shuffle order derives
// from rng so epochs are reproducible.
func Batches(n, batchSize int, rng *rand.Rand) [][]int {
	idx := rng.Perm(n)
	var out [][]int
	for lo := 0; lo < n; lo += batchSize {
		hi := lo + batchSize
		if hi > n {
			hi = n
		}
		out = append(out, idx[lo:hi])
	}
	return out
}

// GatherIn copies the given record rows of a [n, ...] tensor into a
// [len(idx), ...] tensor allocated from s (nil falls back to the heap); the
// trainer passes its step scope so feeds root the step's tensor recycling.
func GatherIn(s *tensor.Scope, t *tensor.Tensor, idx []int) *tensor.Tensor {
	var dims [4]int // the shape stays on the stack up to rank 4
	shape := append(dims[:0], t.Shape()...)
	recSize := t.Len() / shape[0]
	shape[0] = len(idx)
	out := s.Get(shape...)
	for i, r := range idx {
		copy(out.Data()[i*recSize:(i+1)*recSize], t.Data()[r*recSize:(r+1)*recSize])
	}
	return out
}
