package experiments

import (
	"io"
	"math"
	"os"
	"time"

	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/models"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/train"
)

// ObsOverheadResult quantifies the cost of the observability layer on the
// trainer hot loop: the same group trained with no tracer at all, with a
// sinkless tracer (spans allocated, nothing emitted), and with an active
// Chrome-trace sink writing to a discard writer. Each leg reports the mean
// and standard deviation over individually timed passes; an overhead
// within one combined standard deviation of zero is flagged WithinNoise
// and clamped to zero rather than reported as a (meaningless) negative
// percentage.
type ObsOverheadResult struct {
	Runs             int     `json:"runs"`
	NoObsSec         float64 `json:"no_obs_sec"`
	NoObsStdDev      float64 `json:"no_obs_stddev_sec"`
	NilSinkSec       float64 `json:"nil_sink_sec"`
	NilSinkStdDev    float64 `json:"nil_sink_stddev_sec"`
	ActiveSinkSec    float64 `json:"active_sink_sec"`
	ActiveSinkStdDev float64 `json:"active_sink_stddev_sec"`
	// NilSinkOverheadPct is the acceptance metric: nil-tracer instrumentation
	// cost relative to the uninstrumented trainer, in percent.
	NilSinkOverheadPct float64 `json:"nil_sink_overhead_pct"`
	// NilSinkWithinNoise reports that the nil-sink delta was smaller than
	// the run-to-run noise (sum of both legs' standard deviations), so the
	// overhead percentage is a floor (clamped at 0), not a measurement.
	NilSinkWithinNoise    bool    `json:"nil_sink_within_noise"`
	ActiveSinkOverheadPct float64 `json:"active_sink_overhead_pct"`
	ActiveSinkWithinNoise bool    `json:"active_sink_within_noise"`
	SpansPerRun           int64   `json:"spans_per_run"`
}

// obsOverheadWorkload builds one mini feature-transfer group plus a fresh
// store, mirroring the exec package's training tests.
func obsOverheadWorkload(dir string) (*opt.FusedGroup, *storage.TensorStore, error) {
	hub := models.NewBERTHub(models.BERTMini())
	m, err := hub.FeatureTransferModel("obsbench", models.FeatLastHidden, 9, 500)
	if err != nil {
		return nil, nil, err
	}
	prof, err := profile.Profile(m, MiniHardware())
	if err != nil {
		return nil, nil, err
	}
	item := opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8, LR: 1e-3}
	group, err := opt.BuildGroup([]opt.WorkItem{item}, nil, opt.ReusePlan, opt.AdamSlotBytes)
	if err != nil {
		return nil, nil, err
	}
	store, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return nil, nil, err
	}
	return group, store, nil
}

// ObsOverhead measures trainer wall time across the three instrumentation
// modes, averaged over runs individually-timed passes.
func ObsOverhead(runs int) (*ObsOverheadResult, error) {
	if runs <= 0 {
		runs = 5
	}
	dir, err := os.MkdirTemp("", "nautilus-obsbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	group, store, err := obsOverheadWorkload(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	snap := obsSnapshot()

	res := &ObsOverheadResult{Runs: runs}
	type mode struct {
		secs    *float64
		sd      *float64
		tracer  *obs.Tracer
		trainer *exec.Trainer
		passes  []float64
	}
	modes := []*mode{
		{secs: &res.NoObsSec, sd: &res.NoObsStdDev, tracer: nil},
		{secs: &res.NilSinkSec, sd: &res.NilSinkStdDev, tracer: obs.New(nil)},
		{secs: &res.ActiveSinkSec, sd: &res.ActiveSinkStdDev, tracer: obs.New(obs.NewChromeTraceSink(nopWriteCloser{io.Discard}))},
	}
	// One warmup pass per mode outside the timed window settles allocator
	// state and the store's read cache; the timed passes then interleave
	// the modes round-robin, so slow machine drift (page cache, CPU
	// frequency) lands on every leg equally instead of biasing whichever
	// leg happens to run last.
	for _, md := range modes {
		md.trainer = &exec.Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 7, Obs: md.tracer}
		md.passes = make([]float64, runs)
		if _, err := md.trainer.TrainGroup(group, snap); err != nil {
			return nil, err
		}
	}
	for i := 0; i < runs; i++ {
		for _, md := range modes {
			//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
			start := time.Now()
			if _, err := md.trainer.TrainGroup(group, snap); err != nil {
				return nil, err
			}
			//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
			md.passes[i] = time.Since(start).Seconds()
		}
	}
	for _, md := range modes {
		*md.secs, *md.sd = meanStdDev(md.passes)
		if md.tracer != nil {
			var spans int64
			for _, st := range md.tracer.SpanStats() {
				spans += st.Count
			}
			res.SpansPerRun = spans / int64(runs+1)
			if err := md.tracer.Close(); err != nil {
				return nil, err
			}
		}
	}
	res.NilSinkOverheadPct, res.NilSinkWithinNoise =
		overheadPct(res.NilSinkSec, res.NilSinkStdDev, res.NoObsSec, res.NoObsStdDev)
	res.ActiveSinkOverheadPct, res.ActiveSinkWithinNoise =
		overheadPct(res.ActiveSinkSec, res.ActiveSinkStdDev, res.NoObsSec, res.NoObsStdDev)
	return res, nil
}

// meanStdDev returns the sample mean and (population) standard deviation.
func meanStdDev(xs []float64) (mean, sd float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// overheadPct converts an instrumented-vs-bare pair into an overhead
// percentage. A delta smaller than the two legs' combined standard
// deviation is run-to-run noise: the result is flagged and a negative
// percentage (instrumentation "speeding up" training) is clamped to 0.
func overheadPct(sec, sd, baseSec, baseSD float64) (pct float64, withinNoise bool) {
	if baseSec <= 0 {
		return 0, true
	}
	delta := sec - baseSec
	pct = 100 * delta / baseSec
	if math.Abs(delta) <= sd+baseSD {
		withinNoise = true
		if pct < 0 {
			pct = 0
		}
	}
	return pct, withinNoise
}

// obsSnapshot labels a couple of cycles of synthetic NER data for the
// overhead benchmark.
func obsSnapshot() data.Snapshot {
	pool := data.SynthNER(data.NERConfig{Records: 400, Seq: 12, Vocab: 1024, Types: 4, Seed: 99})
	lab := data.NewLabeler(pool, 40, 32)
	var snap data.Snapshot
	for i := 0; i < 2; i++ {
		snap, _, _ = lab.NextCycle()
	}
	return snap
}

// nopWriteCloser adapts io.Discard for sinks that close their writer.
type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// PrintObsOverhead renders the overhead comparison.
func PrintObsOverhead(w io.Writer, r *ObsOverheadResult) error {
	noise := func(within bool) string {
		if within {
			return "  (within noise)"
		}
		return ""
	}
	p := &printer{w: w}
	p.printf("Observability overhead on the trainer hot loop (%d runs averaged)\n", r.Runs)
	p.printf("%-14s %16s %10s\n", "mode", "sec/run", "overhead")
	p.printf("%-14s %9.3f±%.3f %10s\n", "no tracer", r.NoObsSec, r.NoObsStdDev, "-")
	p.printf("%-14s %9.3f±%.3f %9.2f%%%s\n", "nil sink", r.NilSinkSec, r.NilSinkStdDev, r.NilSinkOverheadPct, noise(r.NilSinkWithinNoise))
	p.printf("%-14s %9.3f±%.3f %9.2f%%%s\n", "active sink", r.ActiveSinkSec, r.ActiveSinkStdDev, r.ActiveSinkOverheadPct, noise(r.ActiveSinkWithinNoise))
	p.printf("spans per run (active): %d\n", r.SpansPerRun)
	return p.err
}
