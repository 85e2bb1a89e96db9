package tune

import (
	"fmt"
	"time"

	"nautilus/internal/tensor"
)

// parallelHysteresis is the minimum measured advantage a parallel
// schedule must show over the best serial one to be chosen. Parallel
// timings are the noisiest (scheduler placement, sibling load), so a
// near-tie must resolve to the deterministic-latency serial schedule —
// this is what retires the old global-threshold regressions where a
// kernel parallelized into a 0.7x slowdown.
const parallelHysteresis = 1.1

// Options configures a tuning run.
type Options struct {
	// Workers is the worker cap to tune under; 0 means the ambient
	// tensor.MaxWorkers() cap.
	Workers int
	// Source labels the table (host, workload); stored verbatim.
	Source string
	// Log receives per-case progress lines; nil discards them.
	Log func(format string, args ...any)
}

// Case is one tunable shape: the op family, the dims exactly as the
// kernel's dispatch computes them (they key the table entry), and a
// closure running the kernel once through its public dispatching API.
type Case struct {
	Name string
	Op   tensor.Op
	Dims [3]int
	Run  func()
}

// forceSchedule pins every dispatch to one schedule while the tuner
// measures it. The case's Run only exercises its own kernel, so pinning
// globally is safe.
type forceSchedule struct{ sch tensor.Schedule }

func (f forceSchedule) Schedule(tensor.Op, [3]int, int) (tensor.Schedule, bool) {
	return f.sch, true
}

// Tune benchmarks every case's candidate schedules and returns the table
// of winners. Each case is timed against the zero Schedule at one worker —
// what the kernel runs with no table on one core; the fastest serial
// candidate wins unless a parallel candidate beats it by the hysteresis
// margin. The schedule
// source installed before the call is restored when Tune returns — the
// caller decides whether to install the new table.
func Tune(cases []Case, opts Options) (*Table, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = tensor.MaxWorkers()
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	saveWorkers := tensor.MaxWorkers()
	saveSource := tensor.CurrentScheduleSource()
	tensor.SetMaxWorkers(workers)
	defer func() {
		tensor.SetScheduleSource(saveSource)
		tensor.SetMaxWorkers(saveWorkers)
	}()

	t := &Table{Version: TableVersion, Source: opts.Source, Workers: workers}
	for _, c := range cases {
		if c.Run == nil || c.Op == "" {
			return nil, fmt.Errorf("tune: case %q is incomplete", c.Name)
		}
		bestSch := tensor.Schedule{Workers: 1}
		base := timeSchedule(c, bestSch)
		bestNs := base
		var bestParSch tensor.Schedule
		bestParNs, havePar := 0.0, false
		for _, cand := range candidatesFor(c.Op, workers) {
			ns := timeSchedule(c, cand)
			if cand.Workers == 1 {
				if ns < bestNs {
					bestSch, bestNs = cand, ns
				}
			} else if !havePar || ns < bestParNs {
				bestParSch, bestParNs, havePar = cand, ns, true
			}
		}
		chosen, chosenNs := bestSch, bestNs
		if havePar && bestNs/bestParNs >= parallelHysteresis {
			chosen, chosenNs = bestParSch, bestParNs
		}
		e := Entry{
			Op:           string(c.Op),
			DimBuckets:   [3]int{Bucket(c.Dims[0]), Bucket(c.Dims[1]), Bucket(c.Dims[2])},
			WorkerBucket: Bucket(workers),
			Schedule:     chosen,
			Case:         c.Name,
			BaseNsOp:     base,
			BestNsOp:     chosenNs,
			Speedup:      base / chosenNs,
		}
		t.Add(e)
		logf("tune: %-28s %-20s %8.0f -> %8.0f ns/op (%.2fx)",
			c.Name, chosen.String(), base, chosenNs, e.Speedup)
	}
	return t, nil
}

// candidatesFor enumerates the schedules worth measuring for an op
// family under the given worker cap. Every candidate carries an explicit
// worker count; parallel legs force SerialBelow=1 so the measurement
// actually exercises the chunked path even for small work estimates. Only
// the matmul family has tiles to choose; the other ops' tables decide
// workers and cutoffs alone.
func candidatesFor(op tensor.Op, workers int) []tensor.Schedule {
	variants := []tensor.Schedule{{}} // default tiles (serially, the baseline re-entered)
	switch op {
	case tensor.OpMatMul, tensor.OpMatMulBT, tensor.OpMatMulAT:
		variants = append(variants,
			tensor.Schedule{TileM: 1},             // one output row per tile
			tensor.Schedule{TileK: 128},           // shallow panels
			tensor.Schedule{TileK: 256},           // default packing depth, explicit
			tensor.Schedule{TileM: 4, TileK: 512}, // deep panels
		)
	}
	var out []tensor.Schedule
	for _, v := range variants {
		serial := v
		serial.Workers = 1
		out = append(out, serial)
		if workers > 1 {
			par := v
			par.Workers = workers
			par.SerialBelow = 1
			out = append(out, par)
		}
	}
	return out
}

// timeSchedule measures ns per Run call under a pinned schedule: warmup,
// a window doubled to >=20ms, best of three windows — the same
// noise-damping shape as the experiments' benchmark gate.
func timeSchedule(c Case, sch tensor.Schedule) float64 {
	tensor.SetScheduleSource(forceSchedule{sch: sch})
	defer tensor.SetScheduleSource(nil)
	c.Run() // warmup
	measure := func(iters int) time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			c.Run()
		}
		return time.Since(start)
	}
	iters := 1
	var el time.Duration
	for {
		el = measure(iters)
		if el >= 20*time.Millisecond || iters >= 1<<16 {
			break
		}
		iters *= 2
	}
	best := el
	for i := 0; i < 2; i++ {
		if el = measure(iters); el < best {
			best = el
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}
