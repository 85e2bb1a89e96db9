package obs

import (
	"sync"
	"time"
)

// CostPrediction holds the optimizer's per-record cost-model outputs for
// one fused group: Eq. 5 training compute, the forward-only validation
// share, the materialized-read volume, and the Section 4.3.3 analytical
// peak-memory estimate (a per-group total, not per-record).
type CostPrediction struct {
	ComputeFLOPsPerRecord int64 `json:"compute_flops_per_record"`
	ForwardFLOPsPerRecord int64 `json:"forward_flops_per_record"`
	LoadBytesPerRecord    int64 `json:"load_bytes_per_record"`
	PeakMemoryBytes       int64 `json:"peak_memory_bytes"`
}

// Conformance accumulates predicted-vs-metered cost accounting per fused
// group. The executor registers each group's plan predictions once and
// meters records, wall time and live memory as it trains; Report renders
// the comparison.
type Conformance struct {
	mu     sync.Mutex
	groups map[string]*GroupConformance
	order  []string
	// flopsPerSec and readBytesPerSec are the cost-model rates predicted
	// seconds are derived from (the planner's profile.Hardware constants).
	// Zero rates leave the time-domain drift columns empty.
	flopsPerSec     float64
	readBytesPerSec float64
}

// driftWarn is the drift-ratio threshold beyond which a group report is
// flagged: an actual/predicted time ratio outside [1/driftWarn, driftWarn].
const driftWarn = 1.5

// NewConformance returns an empty conformance report.
func NewConformance() *Conformance {
	return &Conformance{groups: map[string]*GroupConformance{}}
}

// SetRates installs the planner's cost-model throughput constants
// (FLOP/s, read bytes/s) so group reports can convert predicted FLOPs and
// bytes into predicted seconds and compare them against measured wall
// time — the drift ratio that tells a stale calibration from a tight one.
func (c *Conformance) SetRates(flopsPerSec, readBytesPerSec float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.flopsPerSec = flopsPerSec
	c.readBytesPerSec = readBytesPerSec
	c.mu.Unlock()
}

// Group returns the named group's accumulator, creating it on first use
// (nil for a nil Conformance; the returned handle's methods are nil-safe).
func (c *Conformance) Group(name string) *GroupConformance {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.groups[name]
	if g == nil {
		g = &GroupConformance{name: name}
		c.groups[name] = g
		c.order = append(c.order, name)
	}
	return g
}

// GroupConformance accumulates one group's predictions and meters.
type GroupConformance struct {
	mu   sync.Mutex
	name string
	pred CostPrediction

	trainRecords int64
	validRecords int64
	peakMemory   int64 // high-water mark over all batches
	computeTime  time.Duration
	loadTime     time.Duration
}

// SetPredicted records the plan's cost predictions (last call wins).
func (g *GroupConformance) SetPredicted(p CostPrediction) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.pred = p
	g.mu.Unlock()
}

// AddTrainRecords meters n records through the training loop.
func (g *GroupConformance) AddTrainRecords(n int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.trainRecords += n
	g.mu.Unlock()
}

// AddValidRecords meters n records through validation.
func (g *GroupConformance) AddValidRecords(n int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.validRecords += n
	g.mu.Unlock()
}

// AddComputeTime meters wall time spent computing (forward/backward/step,
// feed waits excluded).
func (g *GroupConformance) AddComputeTime(d time.Duration) {
	if g == nil || d <= 0 {
		return
	}
	g.mu.Lock()
	g.computeTime += d
	g.mu.Unlock()
}

// AddLoadTime meters wall time spent assembling feeds (store reads plus
// host-side gathers) — the executor-side cost the c_load constant models.
func (g *GroupConformance) AddLoadTime(d time.Duration) {
	if g == nil || d <= 0 {
		return
	}
	g.mu.Lock()
	g.loadTime += d
	g.mu.Unlock()
}

// ObservePeakMemory raises the group's live-tensor high-water mark.
func (g *GroupConformance) ObservePeakMemory(bytes int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if bytes > g.peakMemory {
		g.peakMemory = bytes
	}
	g.mu.Unlock()
}

// GroupReport is one group's predicted-vs-metered comparison. What is
// metered: records through the training and validation loops, wall time
// computing and assembling feeds, the live-tensor peak. Predicted totals
// expand the plan's per-record costs by the metered record counts (training
// records pay the Eq. 5 cost, validation records the forward share; both
// pay the load volume) — what the plan says this much work costs.
type GroupReport struct {
	Group        string         `json:"group"`
	Predicted    CostPrediction `json:"predicted"`
	TrainRecords int64          `json:"train_records"`
	ValidRecords int64          `json:"valid_records"`

	PredictedComputeFLOPs int64 `json:"predicted_compute_flops"`
	PredictedLoadBytes    int64 `json:"predicted_load_bytes"`

	PredictedPeakMemoryBytes int64   `json:"predicted_peak_memory_bytes"`
	ActualPeakMemoryBytes    int64   `json:"actual_peak_memory_bytes"`
	MemoryUsePct             float64 `json:"memory_use_pct"`

	// Time-domain drift: predicted seconds derive from the predicted FLOPs
	// and bytes via the planner's hardware rates (SetRates); actual seconds
	// are metered wall time. A drift ratio (actual/predicted) near 1 means
	// the calibration is tight; ratios far from 1 mean the planner is
	// costing against the wrong constants. Zero when rates or metered time
	// are absent.
	PredictedComputeSec float64 `json:"predicted_compute_sec,omitempty"`
	ActualComputeSec    float64 `json:"actual_compute_sec,omitempty"`
	ComputeDrift        float64 `json:"compute_drift,omitempty"`
	PredictedLoadSec    float64 `json:"predicted_load_sec,omitempty"`
	ActualLoadSec       float64 `json:"actual_load_sec,omitempty"`
	LoadDrift           float64 `json:"load_drift,omitempty"`
	// DriftWarn is set when a drift ratio falls outside [1/1.5, 1.5].
	DriftWarn bool `json:"drift_warn,omitempty"`
}

// Report renders every group's comparison in first-seen order (nil → nil).
func (c *Conformance) Report() []GroupReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]GroupReport, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.groups[name].report(c.flopsPerSec, c.readBytesPerSec))
	}
	return out
}

func (g *GroupConformance) report(flopsPerSec, readBytesPerSec float64) GroupReport {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := GroupReport{
		Group:        g.name,
		Predicted:    g.pred,
		TrainRecords: g.trainRecords,
		ValidRecords: g.validRecords,

		PredictedComputeFLOPs: g.pred.ComputeFLOPsPerRecord*g.trainRecords + g.pred.ForwardFLOPsPerRecord*g.validRecords,
		PredictedLoadBytes:    g.pred.LoadBytesPerRecord * (g.trainRecords + g.validRecords),

		PredictedPeakMemoryBytes: g.pred.PeakMemoryBytes,
		ActualPeakMemoryBytes:    g.peakMemory,
	}
	if r.PredictedPeakMemoryBytes > 0 {
		r.MemoryUsePct = 100 * float64(r.ActualPeakMemoryBytes) / float64(r.PredictedPeakMemoryBytes)
	}
	r.ActualComputeSec = g.computeTime.Seconds()
	r.ActualLoadSec = g.loadTime.Seconds()
	if flopsPerSec > 0 {
		r.PredictedComputeSec = float64(r.PredictedComputeFLOPs) / flopsPerSec
	}
	if readBytesPerSec > 0 {
		r.PredictedLoadSec = float64(r.PredictedLoadBytes) / readBytesPerSec
	}
	if r.PredictedComputeSec > 0 && r.ActualComputeSec > 0 {
		r.ComputeDrift = r.ActualComputeSec / r.PredictedComputeSec
	}
	if r.PredictedLoadSec > 0 && r.ActualLoadSec > 0 {
		r.LoadDrift = r.ActualLoadSec / r.PredictedLoadSec
	}
	for _, ratio := range []float64{r.ComputeDrift, r.LoadDrift} {
		if ratio > 0 && (ratio > driftWarn || ratio < 1/driftWarn) {
			r.DriftWarn = true
		}
	}
	return r
}
