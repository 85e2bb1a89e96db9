// Package calib fits a measured profile.Calibration from the throughput
// samples the observability layer collects while a workload executes
// (obs.SampleLog: batch compute FLOPs vs wall time, store-read bytes vs
// read time, store-append bytes vs write time).
//
// The fit is a robust regression through the origin: each sample yields a
// throughput ratio work/time, samples whose ratio deviates from the
// median by more than trimK median-absolute-deviations are trimmed, and
// the fitted constant is the one minimizing the mean absolute relative
// time error over the survivors (an L1 fit seeded at the median). The
// median/MAD core is insensitive to the heavy right/left tails real
// traces carry (GC pauses, page-cache hits, cold starts), which a
// least-squares slope is not — the same argument "Learning to Optimize
// Tensor Programs" makes for learning cost models from measurements
// instead of trusting static constants.
package calib

import (
	"fmt"
	"sort"
	"time"

	"nautilus/internal/obs"
	"nautilus/internal/profile"
)

// trimK is the MAD-multiple beyond which a sample counts as an outlier.
const trimK = 3.0

// MinSamples is the fewest samples a channel needs for a fit; below it
// the channel is left unfitted (zero throughput) rather than trusting a
// handful of measurements.
const MinSamples = 4

// FitChannel runs the robust regression over one channel's samples:
// MAD-trim the per-sample throughput ratios around their median, then
// pick the constant minimizing the mean absolute relative time error
// (MeanAbsRelErr) over the kept samples — an L1 fit whose candidate set
// is the kept ratios plus their median. On symmetric noise this lands on
// the median; on the skewed distributions real IO traces carry it shifts
// toward the constant that actually predicts time best. Degenerate
// samples (non-positive work or duration) are ignored; fewer than
// MinSamples usable samples yield a zero fit.
func FitChannel(samples []obs.Sample) profile.ChannelFit {
	usable := make([]obs.Sample, 0, len(samples))
	ratios := make([]float64, 0, len(samples))
	for _, s := range samples {
		if r := s.Ratio(); r > 0 {
			usable = append(usable, s)
			ratios = append(ratios, r)
		}
	}
	fit := profile.ChannelFit{Samples: len(ratios)}
	if len(ratios) < MinSamples {
		return fit
	}
	med := median(ratios)
	mad := medianAbsDev(ratios, med)
	kept := usable
	keptRatios := ratios
	if mad > 0 {
		kept = kept[:0:0]
		keptRatios = keptRatios[:0:0]
		for i, r := range ratios {
			if abs(r-med) <= trimK*mad {
				kept = append(kept, usable[i])
				keptRatios = append(keptRatios, r)
			}
		}
		fit.Trimmed = len(ratios) - len(kept)
	}
	fit.Throughput = median(keptRatios)
	best := MeanAbsRelErr(kept, fit.Throughput)
	for _, c := range keptRatios {
		if e := MeanAbsRelErr(kept, c); e < best {
			best, fit.Throughput = e, c
		}
	}
	if fit.Throughput > 0 {
		fit.Spread = medianAbsDev(keptRatios, fit.Throughput) / fit.Throughput
	}
	return fit
}

// Fit builds a calibration from a sample log. It errors when the compute
// channel — the one constant every plan depends on — has too few samples
// to fit; the IO channels degrade gracefully to their static defaults.
func Fit(log *obs.SampleLog, source string) (*profile.Calibration, error) {
	if log == nil {
		return nil, fmt.Errorf("calib: no sample log (run with observability enabled)")
	}
	c := &profile.Calibration{
		Version:       profile.CalibrationVersion,
		Source:        source,
		CreatedUnixNs: time.Now().UnixNano(),
		Compute:       FitChannel(log.Compute()),
		Read:          FitChannel(log.Read()),
		Write:         FitChannel(log.Write()),
	}
	if c.Compute.Throughput <= 0 {
		return nil, fmt.Errorf("calib: %d compute samples, need at least %d to fit FLOP/s", c.Compute.Samples, MinSamples)
	}
	return c, nil
}

// FromTracer fits a calibration from the tracer's sample log.
func FromTracer(t *obs.Tracer, source string) (*profile.Calibration, error) {
	if t == nil {
		return nil, fmt.Errorf("calib: no tracer (run with observability enabled)")
	}
	return Fit(t.Samples(), source)
}

// Trim returns the samples FitChannel would keep: those whose throughput
// ratio lies within trimK median-absolute-deviations of the median. Use
// it to score constants over the measurements the fit trusts, excluding
// the stall outliers that would dominate a mean-of-errors either way.
func Trim(samples []obs.Sample) []obs.Sample {
	ratios := make([]float64, 0, len(samples))
	for _, s := range samples {
		if r := s.Ratio(); r > 0 {
			ratios = append(ratios, r)
		}
	}
	if len(ratios) == 0 {
		return nil
	}
	med := median(ratios)
	mad := medianAbsDev(ratios, med)
	kept := make([]obs.Sample, 0, len(samples))
	for _, s := range samples {
		r := s.Ratio()
		if r > 0 && (mad == 0 || abs(r-med) <= trimK*mad) {
			kept = append(kept, s)
		}
	}
	return kept
}

// MeanAbsRelErr scores a throughput constant against measured samples:
// the mean of |predicted seconds − actual seconds| / actual seconds,
// where predicted seconds is work/throughput. It is the conformance
// tightness metric nautilus-bench -exp calib prints before vs after
// calibration. Returns 0 when no sample is usable.
func MeanAbsRelErr(samples []obs.Sample, throughput float64) float64 {
	if throughput <= 0 {
		return 0
	}
	var sum float64
	var n int
	for _, s := range samples {
		if s.Work <= 0 || s.DurNs <= 0 {
			continue
		}
		actual := float64(s.DurNs) / 1e9
		pred := float64(s.Work) / throughput
		sum += abs(pred-actual) / actual
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianAbsDev(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	devs := make([]float64, len(xs))
	for i, x := range xs {
		devs[i] = abs(x - med)
	}
	return median(devs)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
