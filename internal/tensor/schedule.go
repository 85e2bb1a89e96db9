package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Op names a tunable kernel family. The autotuner (internal/tensor/tune)
// keys its schedule table by Op plus a bucketed shape, and every hot-path
// kernel asks scheduleFor for its Op before running.
type Op string

// Tunable kernel families.
const (
	OpMatMul      Op = "matmul"       // MatMul: [m,k] x [k,n]
	OpMatMulBT    Op = "matmul_bt"    // MatMulBT: [m,k] x [n,k]T
	OpMatMulAT    Op = "matmul_at"    // MatMulAT: [k,m]T x [k,n]
	OpIm2Col      Op = "im2col"       // convolution lowering
	OpCol2Im      Op = "col2im"       // im2col adjoint (scatter-accumulate)
	OpMaxPool     Op = "maxpool"      // max pooling forward
	OpMaxPoolBack Op = "maxpool_back" // max pooling gradient scatter
	OpGap         Op = "gap"          // global average pooling
	OpGapBack     Op = "gap_back"     // global average pooling gradient
	OpEltwise     Op = "eltwise"      // elementwise add/sub/mul/scale/axpy
	OpRowwise     Op = "rowwise"      // softmax rows
)

// Schedule parameterizes one kernel execution: its tile sizes and the
// parallelization decision. Every op has one body; the schedule only shapes
// how it runs. The zero value means "all defaults": the built-in tiles, the
// ambient worker cap, and the global parallel threshold — exactly the
// pre-tuning heuristics.
type Schedule struct {
	// TileM/TileK size the register/cache blocking; 0 means the kernel's
	// default. MatMul family: TileM is the output-row block fed to the
	// multi-row SIMD micro-kernel (clamped to the row count), TileK the
	// packed/cached panel depth (clamped to the reduction depth).
	TileM int `json:"tile_m,omitempty"`
	TileK int `json:"tile_k,omitempty"`
	// Workers caps goroutines for this dispatch; 0 means the ambient
	// MaxWorkers cap, 1 forces serial.
	Workers int `json:"workers,omitempty"`
	// SerialBelow is the per-kernel serial-vs-parallel cutoff: chunking is
	// skipped while the kernel's op-count estimate stays below it. 0 means
	// the global parallelThreshold; 1 means "always parallelize".
	SerialBelow int `json:"serial_below,omitempty"`
}

// String renders a compact schedule descriptor for tuner and benchmark
// reports, e.g. "m4k256 w1" ("default" stands for the built-in tiles).
func (s Schedule) String() string {
	tiles := ""
	if s.TileM > 0 {
		tiles += fmt.Sprintf("m%d", s.TileM)
	}
	if s.TileK > 0 {
		tiles += fmt.Sprintf("k%d", s.TileK)
	}
	if tiles == "" {
		tiles = "default"
	}
	w := "w*"
	if s.Workers > 0 {
		w = fmt.Sprintf("w%d", s.Workers)
	}
	cut := ""
	if s.SerialBelow > 0 {
		cut = fmt.Sprintf(" cut%d", s.SerialBelow)
	}
	return fmt.Sprintf("%s %s%s", tiles, w, cut)
}

// ScheduleSource resolves a tuned schedule for (op, dims) under the current
// worker cap. A miss (ok=false) makes the kernel fall back to its default
// schedule — the pre-tuning heuristics — so a partial table degrades
// gracefully. Implementations must be safe for concurrent use.
type ScheduleSource interface {
	Schedule(op Op, dims [3]int, workers int) (Schedule, bool)
}

// scheduleSource holds the installed ScheduleSource (nil = none).
var scheduleSource atomic.Value // of sourceBox

// sourceBox wraps the interface so atomic.Value accepts changing concrete
// types (including nil).
type sourceBox struct{ src ScheduleSource }

// SetScheduleSource installs the tuned-schedule source consulted by every
// kernel dispatch (nil uninstalls it, restoring the default heuristics).
// core.Config.TuneTablePath and the CLIs' -tune-table flags route here.
func SetScheduleSource(src ScheduleSource) {
	scheduleSource.Store(sourceBox{src: src})
}

// CurrentScheduleSource returns the installed schedule source (nil when
// none). Benchmarks use it to temporarily pin schedules and restore the
// table afterwards.
func CurrentScheduleSource() ScheduleSource {
	if box, ok := scheduleSource.Load().(sourceBox); ok {
		return box.src
	}
	return nil
}

// scheduleFor resolves the schedule for one kernel dispatch: the installed
// source's answer, else the zero Schedule (all defaults).
func scheduleFor(op Op, dims [3]int) Schedule {
	if src := CurrentScheduleSource(); src != nil {
		if sch, ok := src.Schedule(op, dims, MaxWorkers()); ok {
			return sch
		}
	}
	return Schedule{}
}

// fanOut is how many goroutines a dispatch under sch chunks [0,n) across:
// the schedule's worker count (or the ambient cap) clamped to the cap and
// to n, and 1 — run serially — while the work estimate stays below the
// schedule's serial cutoff (or the global threshold when it sets none).
func fanOut(sch Schedule, n, work int) int {
	workers := sch.Workers
	if limit := MaxWorkers(); workers <= 0 || workers > limit {
		workers = limit
	}
	cutoff := sch.SerialBelow
	if cutoff <= 0 {
		cutoff = parallelThreshold
	}
	if work < cutoff {
		return 1
	}
	return max(1, min(workers, n))
}

// parallelFor is the schedule-aware sibling of Parallel: it splits [0,n)
// into contiguous chunks under the schedule's worker count and
// serial-vs-parallel cutoff instead of the global defaults. The callback
// contract is identical to Parallel's — fn must write only chunk-disjoint
// state, so results are bit-identical to a serial run (a shared write is a
// data race go test -race reports once two workers fan out: the lint
// package's seeded corpus holds that for LayerNorm's row callback).
func parallelFor(sch Schedule, n, work int, fn func(lo, hi int)) {
	workers := fanOut(sch, n, work)
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
