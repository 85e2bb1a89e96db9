package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"

	"nautilus/internal/core"
	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
	"nautilus/internal/verify"
)

// Probes measure one layer from outside, on the inputs a session actually
// used. They run after the session, never inside its timed interval, and
// add their readings to the per-layer map.

// probePlanning times the planner's stages one by one on a candidate set:
// profiling, graph merging, the MAT OPT solve, FUSE OPT and plan
// verification. Approaches that bypass the optimizers skip those stages.
func probePlanning(layer map[string]float64, items []opt.WorkItem, mm *mmg.MultiModel, cfg core.Config, r int) error {
	d, err := timed(func() error {
		for _, it := range items {
			if _, err := profile.Profile(it.Model, cfg.HW); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["profile.profile_s"] += d
	d, err = timed(func() error {
		ms := make([]*graph.Model, len(items))
		for i, it := range items {
			ms[i] = it.Model
		}
		_, err := mmg.Build(ms...)
		return err
	})
	if err != nil {
		return err
	}
	layer["mmg.build_s"] += d
	if cfg.Approach != core.Nautilus {
		return nil
	}
	var mat *opt.MatResult
	matCfg := opt.MatConfig{DiskBudgetBytes: cfg.DiskBudgetBytes, MaxRecords: r, Solver: cfg.Solver}
	d, err = timed(func() (err error) {
		mat, err = opt.OptimizeMaterialization(mm, items, matCfg)
		return err
	})
	if err != nil {
		return err
	}
	layer["opt.mat_solve_s"] += d
	if err := verify.MatResult(mat, items, matCfg); err != nil {
		return err
	}
	fuser, err := opt.NewFuser(cfg.Fuser, cfg.FuseStateBudget)
	if err != nil {
		return err
	}
	var groups []*opt.FusedGroup
	d, err = timed(func() (err error) {
		groups, err = fuser.Fuse(items, mat.Sigs, opt.FuseConfig{MemBudgetBytes: cfg.MemBudgetBytes, OptimizerSlotBytes: 2})
		return err
	})
	if err != nil {
		return err
	}
	layer["opt.fuse_s"] += d
	d, err = timed(func() error { return verify.Groups(groups, items, cfg.MemBudgetBytes, mat.Sigs) })
	layer["verify.groups_s"] += d
	return err
}

// probeSteps is how many training steps the step probe averages over.
const probeSteps = 20

// probeStep runs training steps of one group's plan model on a fixed batch
// and splits the step into feed gathering, forward, loss, backward and
// optimizer time — exec.Trainer's inner loop, spelled out so each call can
// be timed. It steps the group's parameters, so it runs last.
func probeStep(layer map[string]float64, g *opt.FusedGroup, snap data.Snapshot, store *storage.TensorStore, arena *tensor.Arena, cfg core.Config) error {
	planModel, feeds, err := opt.BuildPlanModel(g.Plan)
	if err != nil {
		return err
	}
	n := g.BatchSize()
	if n > snap.TrainSize() {
		n = snap.TrainSize()
	}
	idx := rand.New(rand.NewSource(cfg.Seed)).Perm(snap.TrainSize())[:n]
	type branch struct {
		out    *graph.Node
		opt    train.Optimizer
		params map[*graph.Param]bool
	}
	branches := make([]branch, len(g.Items))
	for i, it := range g.Items {
		params := map[*graph.Param]bool{}
		for _, p := range it.Model.TrainableParams() {
			params[p] = true
		}
		branches[i] = branch{out: planModel.Outputs[i], opt: train.NewAdam(it.LR), params: params}
	}

	var gather, forward, loss, backward, step float64
	var before, after runtime.MemStats
	arena0 := arena.Stats()
	// Two unmeasured steps fill the arena's free lists and the optimizer's
	// moment buffers, as the second batch of any epoch finds them.
	for i := -2; i < probeSteps; i++ {
		if i == 0 {
			gather, forward, loss, backward, step = 0, 0, 0, 0, 0
			arena0 = arena.Stats()
			runtime.ReadMemStats(&before)
		}
		scope := arena.Scope()
		fed := map[string]*tensor.Tensor{}
		d, err := timed(func() error {
			for _, in := range planModel.Inputs() {
				sig, ok := feeds[in.Name]
				if !ok {
					fed[in.Name] = train.GatherIn(scope, snap.TrainX, idx)
					continue
				}
				// exec's store key for a materialized signature's train split.
				rows, err := store.ReadRowsIn(sig.String()+"."+string(exec.Train), idx, scope)
				if err != nil {
					return fmt.Errorf("step probe: read materialized %v: %w", sig, err)
				}
				fed[in.Name] = rows
			}
			return nil
		})
		if err != nil {
			scope.Release()
			return err
		}
		gather += d
		var tape *graph.Tape
		d, err = timed(func() (err error) {
			tape, err = planModel.ForwardOpts(fed, graph.ForwardOptions{Train: true, Alloc: scope})
			return err
		})
		if err != nil {
			scope.Release()
			return err
		}
		forward += d
		outGrads := map[string]*tensor.Tensor{}
		d, _ = timed(func() error {
			yb := train.GatherIn(scope, snap.TrainY, idx)
			for _, b := range branches {
				_, grad := cfg.Loss.Compute(tape.Output(b.out), yb)
				outGrads[b.out.Name] = grad
			}
			return nil
		})
		loss += d
		d, err = timed(func() error { return tape.Backward(outGrads) })
		if err != nil {
			scope.Release()
			return err
		}
		backward += d
		d, _ = timed(func() error {
			all := tape.ParamGrads()
			for _, b := range branches {
				mine := map[*graph.Param]*tensor.Tensor{}
				for p, gr := range all {
					if b.params[p] {
						mine[p] = gr
					}
				}
				b.opt.Step(mine)
			}
			return nil
		})
		step += d
		scope.Release()
	}
	runtime.ReadMemStats(&after)
	st := arena.Stats()
	layer["train.gather_s"] = gather / probeSteps
	layer["graph.forward_s"] = forward / probeSteps
	layer["train.loss_s"] = loss / probeSteps
	layer["graph.backward_s"] = backward / probeSteps
	layer["train.optimizer_step_s"] = step / probeSteps
	layer["tensor.allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / probeSteps
	layer["tensor.alloc_bytes_per_step"] = float64(after.TotalAlloc-before.TotalAlloc) / probeSteps
	if gets := st.Gets - arena0.Gets; gets > 0 {
		layer["tensor.arena_hit_ratio"] = float64(st.Hits-arena0.Hits) / float64(gets)
	}
	return nil
}

// kernelBatch is the batch size the kernel probes use: the larger of the
// paper grid's two.
const kernelBatch = 32

// probeKernels times the tensor kernels at the shapes the mini models hand
// them: the BERT-mini feed-forward matmul and attention softmax, and the
// ResNet-mini stem convolution's im2col and a 2×2 pool over its output.
func probeKernels(layer map[string]float64, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	bert, res := models.BERTMini(), models.ResNetMini()

	m, k, n := kernelBatch*bert.Seq, bert.Dim, bert.FFN
	a := tensor.RandNormal(rng, 1, m, k)
	b := tensor.RandNormal(rng, 1, k, n)
	bt := tensor.RandNormal(rng, 1, n, k)
	flops := 2 * float64(m) * float64(k) * float64(n)
	layer["tensor.matmul_gflops"] = flops / perCall(func() { tensor.MatMul(a, b) }) / 1e9
	layer["tensor.matmul_bt_gflops"] = flops / perCall(func() { tensor.MatMulBT(a, bt) }) / 1e9

	scores := tensor.RandNormal(rng, 1, kernelBatch*bert.Heads*bert.Seq, bert.Seq)
	layer["tensor.softmax_rows_s"] = perCall(func() { tensor.SoftmaxRows(scores) })

	conv := tensor.ConvGeom{InH: res.InH, InW: res.InW, InC: res.InC, KH: res.StemK, KW: res.StemK, StrideH: res.StemStride, StrideW: res.StemStride, PadH: res.StemK / 2, PadW: res.StemK / 2}
	img := tensor.RandNormal(rng, 1, kernelBatch, res.InH, res.InW, res.InC)
	layer["tensor.im2col_s"] = perCall(func() { tensor.Im2Col(img, conv) })

	pool := tensor.ConvGeom{InH: conv.OutH(), InW: conv.OutW(), InC: res.StemC, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	act := tensor.RandNormal(rng, 1, kernelBatch, pool.InH, pool.InW, pool.InC)
	layer["tensor.maxpool_s"] = perCall(func() { tensor.MaxPool2D(act, pool) })
}

// perCall returns the median seconds per call of fn over nine batches of
// calls, each batch sized to last about 20 ms.
func perCall(fn func()) float64 {
	fn() // warm the schedule lookup and the caches
	calls := 1
	for {
		t0 := now()
		for i := 0; i < calls; i++ {
			fn()
		}
		if d := since(t0); d > 0.02 || calls > 1<<20 {
			break
		}
		calls *= 2
	}
	samples := make([]float64, 9)
	for s := range samples {
		t0 := now()
		for i := 0; i < calls; i++ {
			fn()
		}
		samples[s] = since(t0) / float64(calls)
	}
	return median(samples)
}

// peakRSSMB reads the process's peak resident set from /proc (0 where that
// is not available).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
