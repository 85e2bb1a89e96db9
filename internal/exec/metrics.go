// Package exec executes optimized training plans: the Materializer
// computes and incrementally appends chosen intermediate outputs
// (Section 4.2.3), and the Trainer runs (possibly fused) reuse-plan models
// with one optimizer per trainable branch (Section 3), feeding materialized
// intermediates from the tensor store. It also meters compute and I/O so
// experiments can report utilization (Figure 11).
package exec

import (
	"time"

	"nautilus/internal/storage"
)

// Metrics accumulates execution accounting for one workload run.
type Metrics struct {
	// ComputeFLOPs is the cost-model compute executed (plan compute costs
	// × records × epochs), the basis of simulated runtimes.
	ComputeFLOPs int64
	// LoadBytes is the volume of materialized intermediates read.
	LoadBytes int64
	// TrainSteps counts optimizer steps taken.
	TrainSteps int
	// Wall is the time spent training, summed over groups: busy time.
	// Groups of one cycle train concurrently (Trainer.TrainGroups), so it
	// exceeds the cycle's elapsed time, which core.FitResult.Duration holds.
	Wall time.Duration
	// Disk meters actual store traffic (reads and writes).
	Disk *storage.Counters
}

// NewMetrics returns zeroed metrics with a fresh disk counter set.
func NewMetrics() *Metrics {
	return &Metrics{Disk: &storage.Counters{}}
}

// Add accumulates o into m (for aggregating per-cycle metrics). Disk
// counters merge when both sides carry them; m adopts o's counter set when
// it has none of its own.
func (m *Metrics) Add(o *Metrics) {
	m.ComputeFLOPs += o.ComputeFLOPs
	m.LoadBytes += o.LoadBytes
	m.TrainSteps += o.TrainSteps
	m.Wall += o.Wall
	if m.Disk == nil {
		m.Disk = o.Disk
		return
	}
	m.Disk.Merge(o.Disk)
}
