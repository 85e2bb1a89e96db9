package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nautilus/internal/core"
	"nautilus/internal/workloads"
)

// env is what every workload of one invocation shares.
type env struct {
	root     string // repository root
	workRoot string // parent of every session's work directory
	seed     int64  // drives pool synthesis, mini-batch shuffling and store content
	workers  int    // GOMAXPROCS and the kernel worker cap
	tunePath string // committed kernel-schedule table
	dirs     int
}

// workDir creates a fresh work directory for one session.
func (e *env) workDir() (string, error) {
	e.dirs++
	dir := filepath.Join(e.workRoot, fmt.Sprintf("s%04d", e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// sessionResult is what one session of a workload reports.
type sessionResult struct {
	setupS float64   // construction before the session's first cycle
	cycles []float64 // seconds per cycle
	wall   float64   // session_s
	// work items completed and the seconds they took: work_per_s = work/workS.
	work, workS float64
	// ops counts attempted operations; failures holds one message per
	// operation whose output was wrong.
	ops      int
	failures []string
	// layer holds per-layer counts (always) and times (traced sessions).
	layer map[string]float64
	accs  []candAcc    // training workloads: per cycle, per candidate
	plans []planOutput // plan_zoo: one per replan
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// train is set for the four model-selection workloads.
	train *trainWorkload
	// golden marks the training workloads whose Current Practice twin is
	// not itself a workload: their reference accuracies are committed under
	// bench/golden for seed 1.
	golden bool
	// run performs one session, set-up included. A non-nil recorder selects
	// the traced path.
	run func(e *env, rec *recorder) (*sessionResult, error)
}

// The trimmed mini grids. One invocation must fit about 20 s of set-up,
// warm-up, repeated sessions and checks per workload (the driver makes 136
// of them inside an hour), so a session is sized to about 3 s on two cores:
// two labeling cycles of the paper's schedule shape (a train/valid split
// every cycle, everything retrained on all data so far) with fewer records,
// and for ATR and FTU one of the three learning rates. The learning rate
// changes no shape, plan or kernel; depths, batch sizes and epochs, which
// do, keep the full mini grid.
func oneLR(s workloads.Spec) workloads.Spec {
	s.LRs = s.LRs[:1]
	return s
}

func trainEntry(name, why string, tw trainWorkload, golden bool) workload {
	return workload{
		name:   name,
		why:    why,
		train:  &tw,
		golden: golden,
		run: func(e *env, rec *recorder) (*sessionResult, error) {
			if rec != nil {
				return tw.staged(e, rec)
			}
			return tw.session(e, tw.approach, nil)
		},
	}
}

// allWorkloads returns the six workloads in presentation order. The names
// are fixed: BENCHMARK.json and every later comparison refer to them.
func allWorkloads() []workload {
	ftr3 := trainWorkload{spec: workloads.FTR3(), cycles: 2, perCycle: 20, trainPer: 16}
	ftr3n, ftr3cp := ftr3, ftr3
	ftr3n.approach, ftr3cp.approach = core.Nautilus, core.CurrentPractice
	return []workload{
		trainEntry("ftr3_nautilus",
			"paper's home case: frozen BERT trunk materialized once, small heads trained from the tensor store; planner, materializer, store reads and feed assembly do the work, kernels little",
			ftr3n, false),
		trainEntry("ftr3_current_practice",
			"same grid, pool and seed without planner, materializer or store reads: BERT forward kernels and full checkpoint writes dominate; the no-change side for MAT/FUSE/store work and the accuracy reference",
			ftr3cp, false),
		trainEntry("atr_nautilus",
			"adapters make the top blocks trainable, so attention, softmax and layernorm run forward and backward and materialization saves little: kernel-, tape- and arena-bound",
			trainWorkload{spec: oneLR(workloads.ATR()), approach: core.Nautilus, cycles: 2, perCycle: 20, trainPer: 16}, true),
		trainEntry("ftu_nautilus",
			"ResNet fine-tuning: conv, im2col and pooling kernels with large activations, where fusing candidates matters more than materializing",
			trainWorkload{spec: oneLR(workloads.FTU()), approach: core.Nautilus, cycles: 2, perCycle: 20, trainPer: 16}, true),
		{
			name: "plan_zoo",
			why:  "no training: paper-scale planner sessions of all five Table 3 workloads under three budget points, replanned after each evolution event; profile, mmg, opt, verify and core.Planner do all the work",
			run:  planZooSession,
		},
		{
			name: "store_evolve",
			why:  "the tensor store alone, used as materializer and trainer use it: chunked appends beside shuffled batch reads, a row cache that fits early cycles and misses late ones, one GC and reopen mid-run",
			run:  storeEvolveSession,
		},
	}
}
