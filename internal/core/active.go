package core

import (
	"fmt"
	"math"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// EntropyScores computes per-record uncertainty scores for active
// learning's informativeness sampling (Figure 1A): the mean softmax
// entropy of the model's outputs over each record (averaged over positions
// for sequence labelling). Higher means more uncertain. The model is
// compiled once and run in eval mode per chunk of batch records.
func EntropyScores(m *graph.Model, inputName string, x *tensor.Tensor, batch int) ([]float64, error) {
	prog := graph.Compile(m)
	for _, in := range prog.Inputs() {
		if in.Name != inputName {
			return nil, fmt.Errorf("graph: no feed for input %q of model %q", in.Name, m.Name)
		}
	}
	n := x.Dim(0)
	scores := make([]float64, n)
	recSize := x.Len() / n
	shape := append([]int(nil), x.Shape()...)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		shape[0] = hi - lo
		chunk := tensor.FromSlice(x.Data()[lo*recSize:hi*recSize], shape...)
		logits := prog.Run([]*tensor.Tensor{chunk}, graph.ForwardOptions{}).Output(m.Outputs[0])
		probs := tensor.SoftmaxRows(logits)
		rows := probs.Rows()
		perRecord := rows / (hi - lo)
		for r := 0; r < rows; r++ {
			var h float64
			for _, p := range probs.Row(r) {
				if p > 1e-12 {
					h -= float64(p) * math.Log(float64(p))
				}
			}
			scores[lo+r/perRecord] += h / float64(perRecord)
		}
	}
	return scores, nil
}

// BestModel returns the work item of the named candidate, for scoring the
// unlabeled pool with the previous cycle's winner.
func (ms *ModelSelection) BestModel(name string) (*graph.Model, bool) {
	for _, it := range ms.planner.items {
		if it.Model.Name == name {
			return it.Model, true
		}
	}
	return nil, false
}
