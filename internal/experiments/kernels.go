package experiments

import (
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// KernelResult is one micro-kernel timed under its dispatched schedule
// (the installed tuned table, or the default heuristics) against the seed
// reference: the naive kernel body, single-threaded — the pre-autotuning
// baseline.
type KernelResult struct {
	Name string `json:"name"`
	Op   string `json:"op"`
	// Schedule is the compact descriptor of the schedule that fires for
	// this shape; Tuned reports whether it came from the installed table.
	Schedule string `json:"schedule"`
	Tuned    bool   `json:"tuned"`

	SeedNsOp      float64 `json:"seed_ns_op"`  // naive kernel, one worker
	TunedNsOp     float64 `json:"tuned_ns_op"` // as dispatched
	SpeedupVsSeed float64 `json:"speedup_vs_seed"`
	// ParallelSpeedup compares the dispatched schedule against the same
	// schedule forced serial. Exactly 1.0 when the dispatch runs serially
	// anyway (same code path, nothing to compare) — so any value below
	// 1.0 means a schedule parallelized into a slowdown, which Kernels
	// treats as an error.
	ParallelSpeedup float64 `json:"parallel_speedup"`
}

// TrainHotPathResult compares full conv-model training epochs across the
// hot-path regimes: the pre-optimization baseline (serial non-MatMul
// kernels, no tensor recycling) against the parallel + arena engine.
type TrainHotPathResult struct {
	Model     string `json:"model"`
	Records   int    `json:"records"`
	BatchSize int    `json:"batch_size"`
	Steps     int    `json:"steps_per_epoch"`

	BaselineSecEpoch float64 `json:"baseline_sec_epoch"` // serial kernels, heap allocation
	ParallelSecEpoch float64 `json:"parallel_sec_epoch"` // parallel kernels, heap allocation
	PooledSecEpoch   float64 `json:"pooled_sec_epoch"`   // parallel kernels + step arena
	EpochSpeedup     float64 `json:"epoch_speedup"`      // baseline / pooled

	// Allocator traffic per training step (runtime.MemStats deltas).
	UnpooledAllocsPerStep float64 `json:"unpooled_allocs_per_step"`
	PooledAllocsPerStep   float64 `json:"pooled_allocs_per_step"`
	UnpooledBytesPerStep  float64 `json:"unpooled_bytes_per_step"`
	PooledBytesPerStep    float64 `json:"pooled_bytes_per_step"`
	AllocReductionPct     float64 `json:"alloc_reduction_pct"`
	BytesReductionPct     float64 `json:"bytes_reduction_pct"`
}

// KernelsResult is the BENCH_kernels.json payload: the per-kernel
// parallelization wins plus the end-to-end hot-path comparison the ISSUE
// acceptance criteria reference.
type KernelsResult struct {
	Workers int                 `json:"workers"`
	Kernels []KernelResult      `json:"kernels"`
	Train   *TrainHotPathResult `json:"train"`
}

// kernelCase is one micro-benchmark body; it must touch only tensors built
// by its setup so repeated calls are independent. op/dims mirror the
// kernel's own dispatch key; chunkN/work mirror its parallelFor arguments
// (they decide whether a schedule's dispatch actually parallelizes).
type kernelCase struct {
	name   string
	op     tensor.Op
	dims   [3]int
	chunkN int
	work   int
	fn     func()
}

// kernelCases builds the micro-benchmark suite: square, skinny, large,
// and conv-lowered matmul shapes (forward plus both backward transpose
// forms), the conv/pool family at the mini-ResNet block geometry, and the
// elementwise/rowwise ops.
func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(42))
	var cases []kernelCase

	matmul := func(name string, m, k, n int) {
		a := tensor.RandNormal(rng, 1, m, k)
		b := tensor.RandNormal(rng, 1, k, n)
		cases = append(cases, kernelCase{
			name: name, op: tensor.OpMatMul, dims: [3]int{m, k, n}, chunkN: m, work: m * k * n,
			fn: func() { tensor.MatMul(a, b) },
		})
	}
	matmul("matmul_256", 256, 256, 256)
	matmul("matmul_skinny_64x512x64", 64, 512, 64)
	matmul("matmul_1024", 1024, 1024, 1024)
	matmul("matmul_conv_4096x72x16", 4096, 72, 16) // im2col-lowered stem conv

	{
		m, k, n := 256, 256, 256
		a := tensor.RandNormal(rng, 1, m, k)
		bt := tensor.RandNormal(rng, 1, n, k)
		at := tensor.RandNormal(rng, 1, k, m)
		b := tensor.RandNormal(rng, 1, k, n)
		cases = append(cases,
			kernelCase{name: "matmul_bt_256", op: tensor.OpMatMulBT, dims: [3]int{m, k, n}, chunkN: m, work: m * k * n,
				fn: func() { tensor.MatMulBT(a, bt) }},
			kernelCase{name: "matmul_at_256", op: tensor.OpMatMulAT, dims: [3]int{m, k, n}, chunkN: m, work: m * k * n,
				fn: func() { tensor.MatMulAT(at, b) }},
		)
	}

	x := tensor.RandNormal(rng, 1, 16, 32, 32, 8)
	g := tensor.ConvGeom{InH: 32, InW: 32, InC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pool := tensor.ConvGeom{InH: 32, InW: 32, InC: 8, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	cols := tensor.Im2Col(x, g)
	mp, arg := tensor.MaxPool2D(x, pool)
	gap := tensor.GlobalAvgPool(x)
	soft := tensor.RandNormal(rng, 1, 2048, 64)
	ea := tensor.RandNormal(rng, 1, 256, 256)
	eb := tensor.RandNormal(rng, 1, 256, 256)
	convRows := 16 * g.OutH() * g.OutW()
	convCols := g.KH * g.KW * g.InC
	poolRows := 16 * pool.OutH() * pool.OutW()
	cases = append(cases,
		kernelCase{name: "im2col_16x32x32x8_k3", op: tensor.OpIm2Col,
			dims: [3]int{convRows, convCols, 0}, chunkN: convRows, work: convRows * convCols,
			fn: func() { tensor.Im2Col(x, g) }},
		kernelCase{name: "col2im_16x32x32x8_k3", op: tensor.OpCol2Im,
			dims: [3]int{16, g.OutH() * g.OutW(), convCols}, chunkN: 16, work: cols.Len(),
			fn: func() { tensor.Col2Im(cols, 16, g) }},
		kernelCase{name: "maxpool_16x32x32x8", op: tensor.OpMaxPool,
			dims: [3]int{poolRows, pool.InC, pool.KH * pool.KW}, chunkN: poolRows, work: poolRows * pool.InC * pool.KH * pool.KW,
			fn: func() { tensor.MaxPool2D(x, pool) }},
		kernelCase{name: "maxpool_back_16x32x32x8", op: tensor.OpMaxPoolBack,
			dims: [3]int{16, len(arg) / 16, 0}, chunkN: 16, work: len(arg),
			fn: func() { tensor.MaxPool2DBackward(mp, arg, x.Shape()) }},
		kernelCase{name: "gap_16x32x32x8", op: tensor.OpGap,
			dims: [3]int{16, 32 * 32, 8}, chunkN: 16, work: x.Len(),
			fn: func() { tensor.GlobalAvgPool(x) }},
		kernelCase{name: "gap_back_16x32x32x8", op: tensor.OpGapBack,
			dims: [3]int{16, 32 * 32, 8}, chunkN: 16, work: x.Len(),
			fn: func() { tensor.GlobalAvgPoolBackward(gap, x.Shape()) }},
		kernelCase{name: "add_256x256", op: tensor.OpEltwise,
			dims: [3]int{256 * 256, 0, 0}, chunkN: 256 * 256, work: 256 * 256,
			fn: func() { tensor.Add(ea, eb) }},
		kernelCase{name: "softmax_2048x64", op: tensor.OpRowwise,
			dims: [3]int{2048, 64, 0}, chunkN: 2048, work: 2048 * 64 * 8,
			fn: func() { tensor.SoftmaxRows(soft) }},
	)
	return cases
}

// timeKernel returns ns/op: the best of three measurement windows, each
// sized to run for ~50ms, so one GC pause or scheduler hiccup cannot skew
// a kernel's number.
func timeKernel(fn func()) float64 {
	fn() // warmup
	measure := func(iters int) time.Duration {
		//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
		return time.Since(start)
	}
	iters := 1
	var el time.Duration
	for {
		el = measure(iters)
		if el >= 50*time.Millisecond || iters >= 1<<16 {
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

// kernelsTrainWorkload builds a singleton fine-tune group over the mini
// ResNet — the conv-heavy hot path the arena and parallel kernels target.
func kernelsTrainWorkload(dir string) (*opt.FusedGroup, *storage.TensorStore, data.Snapshot, error) {
	hub := models.NewResNetHub(models.ResNetMini())
	m, err := hub.FineTuneModel("kernbench", 1, 2, 77)
	if err != nil {
		return nil, nil, data.Snapshot{}, err
	}
	prof, err := profile.Profile(m, MiniHardware())
	if err != nil {
		return nil, nil, data.Snapshot{}, err
	}
	item := opt.WorkItem{Model: m, Prof: prof, Epochs: 1, BatchSize: 16, LR: 1e-3}
	group, err := opt.BuildGroup([]opt.WorkItem{item}, nil, opt.ReusePlan, opt.AdamSlotBytes)
	if err != nil {
		return nil, nil, data.Snapshot{}, err
	}
	store, err := storage.NewTensorStore(dir, nil)
	if err != nil {
		return nil, nil, data.Snapshot{}, err
	}
	pool := data.SynthImages(data.ImageConfig{Records: 256, H: 16, W: 16, C: 3, Seed: 5})
	lab := data.NewLabeler(pool, 128, 112)
	var snap data.Snapshot
	for i := 0; i < 2; i++ {
		snap, _, _ = lab.NextCycle()
	}
	return group, store, snap, nil
}

// trainEpochStats runs `runs` training passes and returns seconds per pass
// plus allocator traffic (mallocs, bytes) per optimizer step.
func trainEpochStats(g *opt.FusedGroup, store *storage.TensorStore, snap data.Snapshot, arena *tensor.Arena, runs int) (secPerRun, allocsPerStep, bytesPerStep float64, err error) {
	met := exec.NewMetrics()
	trainer := &exec.Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 7, Arena: arena, Prefetch: true, Metrics: met}
	// Warmup pass settles pool and page-cache state outside the window.
	if _, err = trainer.TrainGroup(g, snap); err != nil {
		return
	}
	stepsBefore := met.TrainSteps
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
	start := time.Now()
	for i := 0; i < runs; i++ {
		if _, err = trainer.TrainGroup(g, snap); err != nil {
			return
		}
	}
	//lint:ignore determinism wall-clock benchmark measurement is the experiment's output
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	steps := float64(met.TrainSteps - stepsBefore)
	secPerRun = el.Seconds() / float64(runs)
	allocsPerStep = float64(m1.Mallocs-m0.Mallocs) / steps
	bytesPerStep = float64(m1.TotalAlloc-m0.TotalAlloc) / steps
	return
}

// forcedSchedule pins every dispatch to one schedule while a leg runs.
type forcedSchedule struct{ sch tensor.Schedule }

func (f forcedSchedule) Schedule(tensor.Op, [3]int, int) (tensor.Schedule, bool) {
	return f.sch, true
}

// timeKernelForced times fn with every dispatch pinned to sch, restoring
// the ambient schedule source (the loaded tuned table, usually) after.
func timeKernelForced(fn func(), sch tensor.Schedule) float64 {
	prev := tensor.CurrentScheduleSource()
	tensor.SetScheduleSource(forcedSchedule{sch: sch})
	defer tensor.SetScheduleSource(prev)
	return timeKernel(fn)
}

// Kernels measures the hot-path execution engine: each micro-kernel under
// its dispatched schedule versus the seed reference (naive body, one
// worker), then full conv-model training in baseline (serial + heap),
// parallel + heap, and parallel + arena regimes. A kernel whose schedule
// parallelizes into a slowdown (ParallelSpeedup < 1.0 after one retry) is
// reported, not rejected: kernels.min_parallel_speedup in the baseline gate
// decides, with a noise tolerance one timing pair does not have.
func Kernels(runs int) (*KernelsResult, error) {
	if runs <= 0 {
		runs = 3
	}
	res := &KernelsResult{Workers: tensor.MaxWorkers()}

	for _, kc := range kernelCases() {
		seed := timeKernelForced(kc.fn, tensor.Schedule{Kernel: "naive", Workers: 1})
		tuned := timeKernel(kc.fn)
		sch, fromTable := tensor.ScheduleFor(kc.op, kc.dims)
		kr := KernelResult{
			Name: kc.name, Op: string(kc.op), Schedule: sch.String(), Tuned: fromTable,
			SeedNsOp: seed, TunedNsOp: tuned, SpeedupVsSeed: seed / tuned,
			ParallelSpeedup: 1.0,
		}
		if tensor.WouldParallelize(sch, kc.chunkN, kc.work) {
			serialSch := sch
			serialSch.Workers = 1
			serialNs := timeKernelForced(kc.fn, serialSch)
			kr.ParallelSpeedup = serialNs / tuned
			if kr.ParallelSpeedup < 1.0 {
				// One retry: parallel timings are the noisiest leg.
				tuned = timeKernel(kc.fn)
				kr.TunedNsOp = tuned
				kr.SpeedupVsSeed = seed / tuned
				kr.ParallelSpeedup = serialNs / tuned
			}
		}
		res.Kernels = append(res.Kernels, kr)
	}

	dir, err := os.MkdirTemp("", "nautilus-kernbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	g, store, snap, err := kernelsTrainWorkload(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()

	tr := &TrainHotPathResult{
		Model:     "resnet-mini finetune(top=1)",
		Records:   snap.TrainSize(),
		BatchSize: g.BatchSize(),
		Steps:     (snap.TrainSize() + g.BatchSize() - 1) / g.BatchSize(),
	}

	// Baseline: the pre-optimization engine — every kernel single-threaded,
	// every tensor heap-allocated.
	tensor.SetMaxWorkers(1)
	tr.BaselineSecEpoch, _, _, err = trainEpochStats(g, store, snap, nil, runs)
	tensor.SetMaxWorkers(0)
	if err != nil {
		return nil, err
	}
	// Parallel kernels, still heap-allocating.
	var unpooledAllocs, unpooledBytes float64
	tr.ParallelSecEpoch, unpooledAllocs, unpooledBytes, err = trainEpochStats(g, store, snap, nil, runs)
	if err != nil {
		return nil, err
	}
	// Full engine: parallel kernels + step-scoped arena.
	var pooledAllocs, pooledBytes float64
	tr.PooledSecEpoch, pooledAllocs, pooledBytes, err = trainEpochStats(g, store, snap, tensor.NewArena(), runs)
	if err != nil {
		return nil, err
	}
	tr.EpochSpeedup = tr.BaselineSecEpoch / tr.PooledSecEpoch
	tr.UnpooledAllocsPerStep = unpooledAllocs
	tr.PooledAllocsPerStep = pooledAllocs
	tr.UnpooledBytesPerStep = unpooledBytes
	tr.PooledBytesPerStep = pooledBytes
	tr.AllocReductionPct = 100 * (1 - pooledAllocs/unpooledAllocs)
	tr.BytesReductionPct = 100 * (1 - pooledBytes/unpooledBytes)
	res.Train = tr
	return res, nil
}

// PrintKernels renders the kernel and hot-path comparison.
func PrintKernels(w io.Writer, r *KernelsResult) error {
	p := &printer{w: w}
	p.printf("Hot-path engine benchmarks (%d workers)\n", r.Workers)
	p.printf("%-26s %-22s %12s %12s %9s %7s\n", "kernel", "schedule", "seed ns/op", "ns/op", "vs seed", "par")
	for _, k := range r.Kernels {
		src := ""
		if k.Tuned {
			src = " [tuned]"
		}
		p.printf("%-26s %-22s %12.0f %12.0f %8.2fx %6.2fx\n",
			k.Name, k.Schedule+src, k.SeedNsOp, k.TunedNsOp, k.SpeedupVsSeed, k.ParallelSpeedup)
	}
	t := r.Train
	p.printf("\nconv-model training: %s, %d records, batch %d (%d steps/epoch)\n",
		t.Model, t.Records, t.BatchSize, t.Steps)
	p.printf("%-26s %12s\n", "regime", "sec/epoch")
	p.printf("%-26s %12.3f\n", "serial + heap (baseline)", t.BaselineSecEpoch)
	p.printf("%-26s %12.3f\n", "parallel + heap", t.ParallelSecEpoch)
	p.printf("%-26s %12.3f\n", "parallel + arena", t.PooledSecEpoch)
	p.printf("epoch speedup (baseline/arena): %.2fx\n", t.EpochSpeedup)
	p.printf("allocs/step: %.0f -> %.0f (%.1f%% reduction)\n",
		t.UnpooledAllocsPerStep, t.PooledAllocsPerStep, t.AllocReductionPct)
	p.printf("bytes/step:  %.0f -> %.0f (%.1f%% reduction)\n",
		t.UnpooledBytesPerStep, t.PooledBytesPerStep, t.BytesReductionPct)
	return p.err
}
