package experiments

import (
	"io"

	"nautilus/internal/core"
	"nautilus/internal/obs"
	"nautilus/internal/obs/calib"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// CalibResult reports the trace-calibration experiment: a mini workload
// runs under a sinkless tracer, the calibration fitter regresses measured
// throughput constants from its sample log, and the mean absolute
// predicted-vs-actual time error is scored twice — once with the static
// DefaultHardware constants the paper assumes, once with the fitted ones.
// Calibration tightens conformance when the After columns beat Before.
type CalibResult struct {
	Workload string
	Cycles   int

	ComputeSamples int
	ComputeTrimmed int
	ReadSamples    int

	// Static constants (profile.DefaultHardware) vs fitted ones.
	DefaultFLOPS   float64
	FittedFLOPS    float64
	DefaultReadBps float64
	FittedReadBps  float64

	// Mean |predicted − actual| / actual over per-sample seconds, scored
	// on the outlier-trimmed sample set (the measurements the fit trusts)
	// so a single GC stall cannot dominate either column.
	ErrComputeBefore float64
	ErrComputeAfter  float64
	ErrLoadBefore    float64
	ErrLoadAfter     float64
}

// Calib runs the calibration-tightens-conformance experiment on a small
// real-training workload.
func Calib() (*CalibResult, error) {
	const workload, cycles = "FTR-1", 2
	spec, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	tr := obs.New(nil)
	if _, err := RunMini(spec, []core.Approach{core.Nautilus}, 1, cycles, tr); err != nil {
		return nil, err
	}

	c, err := calib.FromTracer(tr, "bench "+workload)
	if err != nil {
		return nil, err
	}
	base := profile.DefaultHardware()
	fitted := c.Apply(base)
	log := tr.Samples()
	compute := calib.Trim(log.Compute())
	read := calib.Trim(log.Read())
	res := &CalibResult{
		Workload:         workload,
		Cycles:           cycles,
		ComputeSamples:   c.Compute.Samples,
		ComputeTrimmed:   c.Compute.Trimmed,
		ReadSamples:      c.Read.Samples,
		DefaultFLOPS:     base.FLOPSThroughput,
		FittedFLOPS:      fitted.FLOPSThroughput,
		DefaultReadBps:   base.DiskThroughput,
		FittedReadBps:    fitted.DiskThroughput,
		ErrComputeBefore: calib.MeanAbsRelErr(compute, base.FLOPSThroughput),
		ErrComputeAfter:  calib.MeanAbsRelErr(compute, fitted.FLOPSThroughput),
		ErrLoadBefore:    calib.MeanAbsRelErr(read, base.DiskThroughput),
		ErrLoadAfter:     calib.MeanAbsRelErr(read, fitted.DiskThroughput),
	}
	if err := tr.Close(); err != nil {
		return nil, err
	}
	return res, nil
}

// PrintCalib renders the before/after conformance comparison.
func PrintCalib(w io.Writer, r *CalibResult) error {
	p := &printer{w: w}
	p.printf("Trace calibration on %s (%d cycles, real training)\n", r.Workload, r.Cycles)
	p.printf("%-10s %12s %12s %22s %22s\n", "channel", "samples", "trimmed", "throughput (fit)", "throughput (static)")
	p.printf("%-10s %12d %12d %22.3g %22.3g\n", "compute", r.ComputeSamples, r.ComputeTrimmed, r.FittedFLOPS, r.DefaultFLOPS)
	p.printf("%-10s %12d %12s %22.3g %22.3g\n", "read", r.ReadSamples, "-", r.FittedReadBps, r.DefaultReadBps)
	p.printf("\nmean abs predicted-vs-actual time error (lower is tighter)\n")
	p.printf("%-10s %14s %14s\n", "channel", "static HW", "calibrated")
	p.printf("%-10s %14.4f %14.4f\n", "compute", r.ErrComputeBefore, r.ErrComputeAfter)
	p.printf("%-10s %14.4f %14.4f\n", "load", r.ErrLoadBefore, r.ErrLoadAfter)
	return p.err
}
