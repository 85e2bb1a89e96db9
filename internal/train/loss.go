// Package train provides the training primitives of the Nautilus substrate:
// loss functions, the Adam optimizer, and batch iteration helpers. The multi-branch fused-model training loop lives in
// internal/exec and composes these primitives.
package train

import (
	"fmt"
	"math"

	"nautilus/internal/tensor"
)

// Loss scores logits against integer class labels and produces the logits
// gradient for back-propagation.
type Loss interface {
	// Compute returns the mean loss and dLoss/dLogits. logits has 2-D view
	// [rows, classes]; labels holds one class id per row (float32 storage),
	// so the same implementation serves sequence labelling
	// ([batch, seq, classes] vs [batch, seq]) and classification
	// ([batch, classes] vs [batch]).
	Compute(logits, labels *tensor.Tensor) (float64, *tensor.Tensor)
	// Accuracy returns the fraction of rows whose argmax matches the label.
	Accuracy(logits, labels *tensor.Tensor) float64
}

// SoftmaxCrossEntropy is the standard classification loss: softmax over the
// last dimension followed by negative log-likelihood, averaged over rows.
type SoftmaxCrossEntropy struct{}

// Compute implements Loss.
func (SoftmaxCrossEntropy) Compute(logits, labels *tensor.Tensor) (float64, *tensor.Tensor) {
	rows, classes := logits.Rows(), logits.Cols()
	if labels.Len() != rows {
		panic(fmt.Sprintf("train: %d labels for %d logit rows", labels.Len(), rows))
	}
	probs := tensor.SoftmaxRows(logits)
	grad := tensor.NewFrom(logits, logits.Shape()...)
	var loss float64
	inv := 1 / float32(rows)
	for r := 0; r < rows; r++ {
		y := int(labels.Data()[r])
		if y < 0 || y >= classes {
			panic(fmt.Sprintf("train: label %d out of %d classes", y, classes))
		}
		pr, gr := probs.Row(r), grad.Row(r)
		loss -= math.Log(math.Max(float64(pr[y]), 1e-12))
		for j := 0; j < classes; j++ {
			gr[j] = pr[j] * inv
		}
		gr[y] -= inv
	}
	return loss / float64(rows), grad
}

// Accuracy implements Loss.
func (SoftmaxCrossEntropy) Accuracy(logits, labels *tensor.Tensor) float64 {
	rows, classes := logits.Rows(), logits.Cols()
	correct := 0
	for r := 0; r < rows; r++ {
		lr := logits.Row(r)
		best := 0
		for j := 1; j < classes; j++ {
			if lr[j] > lr[best] {
				best = j
			}
		}
		if best == int(labels.Data()[r]) {
			correct++
		}
	}
	return float64(correct) / float64(rows)
}
