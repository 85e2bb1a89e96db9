package data

import (
	"fmt"

	"nautilus/internal/tensor"
)

// UnlabeledIndices returns the pool indices not yet labeled, in order.
func (p *Pool) UnlabeledIndices() []int {
	p.ensureLabeled()
	var idx []int
	for i := 0; i < p.Size(); i++ {
		if !p.labeled[i] {
			idx = append(idx, i)
		}
	}
	return idx
}

// GatherX copies the given records' inputs into a [len(idx), ...] tensor,
// e.g. to score unlabeled candidates with the current best model.
func (p *Pool) GatherX(idx []int) *tensor.Tensor {
	shape := append([]int(nil), p.X.Shape()...)
	rec := p.X.Len() / shape[0]
	shape[0] = len(idx)
	out := tensor.New(shape...)
	for i, r := range idx {
		copy(out.Data()[i*rec:(i+1)*rec], p.X.Data()[r*rec:(r+1)*rec])
	}
	return out
}

// LabelIndices releases the labels of specific records (active learning's
// "label the most informative batch", Figure 1A). Already-labeled indices
// are rejected.
func (p *Pool) LabelIndices(idx []int) (x, y *tensor.Tensor, err error) {
	p.ensureLabeled()
	for _, r := range idx {
		if r < 0 || r >= p.Size() {
			return nil, nil, fmt.Errorf("data: index %d out of pool size %d", r, p.Size())
		}
		if p.labeled[r] {
			return nil, nil, fmt.Errorf("data: record %d already labeled", r)
		}
	}
	for _, r := range idx {
		p.labeled[r] = true
	}
	xs := p.GatherX(idx)
	yShape := append([]int(nil), p.Y.Shape()...)
	lrec := p.Y.Len() / yShape[0]
	yShape[0] = len(idx)
	ys := tensor.New(yShape...)
	for i, r := range idx {
		copy(ys.Data()[i*lrec:(i+1)*lrec], p.Y.Data()[r*lrec:(r+1)*lrec])
	}
	return xs, ys, nil
}

// ensureLabeled lazily allocates the labeled bitmap.
func (p *Pool) ensureLabeled() {
	if p.labeled == nil {
		p.labeled = make([]bool, p.Size())
	}
}
