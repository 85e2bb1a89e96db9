package tensor

import (
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
)

// parallelThreshold is the minimum amount of work (op count) below which a
// kernel runs single-threaded; spawning goroutines for tiny tensors costs
// more than it saves.
const parallelThreshold = 1 << 16

// workerCap holds the configured worker limit; 0 means GOMAXPROCS.
var workerCap atomic.Int32

func init() {
	workerCap.Store(int32(workersFromEnv(os.Getenv("NAUTILUS_WORKERS"))))
}

// workersFromEnv parses a NAUTILUS_WORKERS value; anything unset, malformed,
// or non-positive means "no cap" (0).
func workersFromEnv(s string) int {
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0
	}
	return n
}

// SetMaxWorkers caps kernel workers *and* concurrent groups at n: a kernel
// fans out to at most n goroutines, and exec.Trainer.TrainGroups trains at
// most n fused groups at once (n <= 0 restores the default, GOMAXPROCS).
// The initial cap honors the NAUTILUS_WORKERS environment variable so
// benchmark and test runs are reproducible across machines;
// profile.Hardware plumbs the same knob through configuration.
func SetMaxWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerCap.Store(int32(n))
}

// MaxWorkers returns the effective worker cap (kernel workers per dispatch,
// group slots per trainer).
func MaxWorkers() int {
	if n := int(workerCap.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Parallel splits [0,n) into contiguous chunks and runs fn on each, using
// one goroutine per chunk when work (an op count) exceeds the parallel
// threshold. fn must write only to disjoint state per chunk; every kernel
// built on Parallel assigns each output element to exactly one chunk, so
// results are bit-identical to a serial run. It is parallelFor under the
// default schedule: ambient worker cap, global threshold.
func Parallel(n, work int, fn func(lo, hi int)) {
	parallelFor(Schedule{}, n, work, fn)
}
