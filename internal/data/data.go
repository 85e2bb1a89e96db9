// Package data provides the evolving-training-data substrate: synthetic
// stand-ins for the CoNLL-2003 NER corpus and the Malaria blood-cell image
// set (see DESIGN.md substitutions), plus the labeling simulation that
// releases label batches cycle by cycle, realizing the paper's
// D_{k+1} = D_k ∪ ΔD⁺_k data model (Equation 4).
package data

import (
	"fmt"
	"sort"

	"nautilus/internal/tensor"
)

// Pool is an unlabeled data pool whose ground-truth labels are released by
// the simulated human labeler, exactly as the paper "simulate[s] the human
// labeler by programmatically releasing the labels" (Section 5).
type Pool struct {
	Name string
	X    *tensor.Tensor // [n, ...record]
	Y    *tensor.Tensor // [n] or [n, seq]

	labeled []bool // per-record labeled flags
}

// Size returns the number of records in the pool.
func (p *Pool) Size() int { return p.X.Dim(0) }

// slice0 copies records [lo,hi) along dimension 0.
func slice0(t *tensor.Tensor, lo, hi int) *tensor.Tensor {
	shape := append([]int(nil), t.Shape()...)
	rec := t.Len() / shape[0]
	shape[0] = hi - lo
	out := tensor.New(shape...)
	copy(out.Data(), t.Data()[lo*rec:hi*rec])
	return out
}

// Snapshot is one dataset snapshot D_k with its train/validation split.
type Snapshot struct {
	Cycle          int
	TrainX, TrainY *tensor.Tensor
	ValidX, ValidY *tensor.Tensor
}

// TrainSize returns the number of training records in the snapshot.
func (s Snapshot) TrainSize() int {
	if s.TrainX == nil {
		return 0
	}
	return s.TrainX.Dim(0)
}

// ValidSize returns the number of validation records in the snapshot.
func (s Snapshot) ValidSize() int {
	if s.ValidX == nil {
		return 0
	}
	return s.ValidX.Dim(0)
}

// Labeler drives the model-selection cycles: each cycle it labels PerCycle
// new records, splits them TrainPerCycle/ValidPerCycle, and appends them to
// the accumulated snapshot. The paper uses 500 records per cycle with a
// 400/100 split for 10 cycles. Records are released in pool order
// (NextCycle) or, for active learning, highest score first
// (NextCycleScored).
type Labeler struct {
	Pool          *Pool
	PerCycle      int
	TrainPerCycle int

	cycle int
	cur   Snapshot
}

// NewLabeler returns a labeler releasing perCycle records per cycle of
// which trainPerCycle go to the training split.
func NewLabeler(pool *Pool, perCycle, trainPerCycle int) *Labeler {
	if trainPerCycle <= 0 || trainPerCycle >= perCycle {
		panic(fmt.Sprintf("data: trainPerCycle %d must be in (0, %d)", trainPerCycle, perCycle))
	}
	return &Labeler{Pool: pool, PerCycle: perCycle, TrainPerCycle: trainPerCycle}
}

// HasMore reports whether the pool can supply another full cycle.
func (l *Labeler) HasMore() bool { return len(l.Pool.UnlabeledIndices()) >= l.PerCycle }

// NextCycle labels the next PerCycle records in pool order and returns the
// grown snapshot D_{k+1} along with the newly added training records ΔD⁺
// (for incremental materialization). A pool running dry releases what is
// left.
func (l *Labeler) NextCycle() (snap Snapshot, deltaX, deltaY *tensor.Tensor) {
	idx := l.Pool.UnlabeledIndices()
	if len(idx) > l.PerCycle {
		idx = idx[:l.PerCycle]
	}
	return l.release(idx)
}

// NextCycleScored is the active-learning cycle (Figure 1A): scores align
// with the pool's UnlabeledIndices(), and the PerCycle highest-scoring
// records are labeled (uncertainty sampling), ties in pool order. A nil
// scores labels in pool order, as NextCycle does. A pool short of a full
// cycle or a scores slice of the wrong length is an error.
func (l *Labeler) NextCycleScored(scores []float64) (Snapshot, error) {
	unlabeled := l.Pool.UnlabeledIndices()
	if len(unlabeled) < l.PerCycle {
		return l.cur, fmt.Errorf("data: only %d unlabeled records left, need %d", len(unlabeled), l.PerCycle)
	}
	if scores != nil {
		if len(scores) != len(unlabeled) {
			return l.cur, fmt.Errorf("data: %d scores for %d unlabeled records", len(scores), len(unlabeled))
		}
		order := make([]int, len(unlabeled))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
		for i, o := range order {
			order[i] = unlabeled[o]
		}
		unlabeled = order
	}
	snap, _, _ := l.release(unlabeled[:l.PerCycle])
	return snap, nil
}

// release labels the given unlabeled records, splits them train-first, and
// appends them to the snapshot.
func (l *Labeler) release(idx []int) (snap Snapshot, deltaX, deltaY *tensor.Tensor) {
	x, y, err := l.Pool.LabelIndices(idx)
	if err != nil {
		panic(err) // unreachable: indices come from UnlabeledIndices
	}
	n := len(idx)
	tn := min(l.TrainPerCycle, n)
	dx, dy := slice0(x, 0, tn), slice0(y, 0, tn)
	vx, vy := slice0(x, tn, n), slice0(y, tn, n)
	l.cycle++
	l.cur = Snapshot{
		Cycle:  l.cycle,
		TrainX: append0(l.cur.TrainX, dx),
		TrainY: append0(l.cur.TrainY, dy),
		ValidX: append0(l.cur.ValidX, vx),
		ValidY: append0(l.cur.ValidY, vy),
	}
	return l.cur, dx, dy
}

// append0 concatenates b after a along dimension 0; a may be nil.
func append0(a, b *tensor.Tensor) *tensor.Tensor {
	if a == nil {
		return b
	}
	if b.Dim(0) == 0 {
		return a
	}
	shape := append([]int(nil), a.Shape()...)
	shape[0] += b.Dim(0)
	out := tensor.New(shape...)
	copy(out.Data(), a.Data())
	copy(out.Data()[a.Len():], b.Data())
	return out
}
