package exec

import (
	"fmt"
	"math/rand"
	"time"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// Trainer trains fused (or singleton) reuse-plan models on dataset
// snapshots, reading materialized intermediates from the tensor store. One
// Adam instance at the item's learning rate runs per trainable branch, each
// branch belonging to one source model of the group (the multi-optimizer
// training of Section 3).
type Trainer struct {
	Store *storage.TensorStore
	Loss  train.Loss
	// Seed drives mini-batch shuffling.
	Seed int64
	// Metrics, when set, accumulates execution accounting.
	Metrics *Metrics
	// Prefetch overlaps the next mini-batch's feed assembly (store reads
	// + gathers) with the current batch's compute — the pipelining the
	// paper notes can hide load costs (Section 4.2.1). Results are
	// bit-identical with or without it.
	Prefetch bool
	// Arena, when set, recycles every step-scoped tensor (feeds, forward
	// intermediates, layer caches, gradients) across mini-batches: a group
	// takes one tensor.Scope from it, the tape frees each activation into
	// it at its last use, the scope recycles once each batch's optimizer
	// step retires and goes back when the group is done, so steady-state
	// training stops allocating. Results are bit-identical with or without
	// it, and so is the tape's live-byte meter (it counts tensor lifetimes,
	// not physical buffers).
	Arena *tensor.Arena
	// Obs, when set, emits per-group/epoch/batch spans, registry metrics,
	// and the cost-model conformance account, the tape's metered live-byte
	// peak included. nil disables all instrumentation (nil-check cost only).
	Obs *obs.Tracer
}

// BranchResult reports one source model's training outcome.
type BranchResult struct {
	Item      opt.WorkItem
	ValAcc    float64
	ValLoss   float64
	FinalLoss float64
}

// TrainGroup trains one fused group for its epoch count on the snapshot
// and evaluates every branch on the validation split. Training a group is
// logically equivalent to training each member separately (Section 5.2);
// the equivalence tests in this package verify it.
func (t *Trainer) TrainGroup(g *opt.FusedGroup, snap data.Snapshot) ([]BranchResult, error) {
	return t.trainGroup(g, snap, t.Metrics, 0)
}

// trainGroup is TrainGroup accounting into m (nil: no accounting) with its
// spans on slot's tracks, so groups TrainGroups runs side by side neither
// share counters nor overlap in the trace.
func (t *Trainer) trainGroup(g *opt.FusedGroup, snap data.Snapshot, m *Metrics, slot int) ([]BranchResult, error) {
	started := time.Now()
	span := t.Obs.Start("train/group",
		obs.Str("group", g.Name()),
		obs.Int("branches", int64(len(g.Items))),
		obs.Int("epochs", int64(g.Epochs())),
		obs.Int("batch_size", int64(g.BatchSize()))).SetTrack(slotTracks * slot)
	defer span.End()
	planModel, feeds, err := opt.BuildPlanModel(g.Plan)
	if err != nil {
		return nil, err
	}
	if len(planModel.Outputs) != len(g.Items) {
		return nil, fmt.Errorf("exec: %d outputs for %d branches", len(planModel.Outputs), len(g.Items))
	}
	prog := graph.Compile(planModel, false)
	// Branch optimizers over each source model's trainable params (layer
	// instances are shared between source models and the plan model), found
	// among the program's parameters once per group.
	type branch struct {
		out    *graph.Node
		opt    *train.Adam
		params []*graph.Param
		at     []int            // by params: its number in prog.Params()
		grads  []*tensor.Tensor // by params: this step's gradient
	}
	num := make(map[*graph.Param]int, len(prog.Params()))
	for k, p := range prog.Params() {
		num[p] = k
	}
	branches := make([]branch, len(g.Items))
	for i, it := range g.Items {
		b := branch{out: planModel.Outputs[i], opt: train.NewAdam(it.LR)}
		for _, p := range it.Model.TrainableParams() {
			if k, ok := num[p]; ok {
				b.params, b.at = append(b.params, p), append(b.at, k)
			}
		}
		b.grads = make([]*tensor.Tensor, len(b.at))
		branches[i] = b
	}
	outGrads := make([]*tensor.Tensor, len(branches)) // by branch = by output

	computePerRecord := g.Plan.ComputeFLOPsPerRecord()
	loadPerRecord := g.Plan.LoadBytesPerRecord()
	rng := rand.New(rand.NewSource(t.Seed))
	n := snap.TrainSize()
	var lastLoss float64

	// Conformance account: the plan's per-record predictions (and its B_mem
	// estimate) registered up front, actuals metered batch by batch.
	gc := t.Obs.Conformance().Group(g.Name())
	gc.SetPredicted(obs.CostPrediction{
		ComputeFLOPsPerRecord: computePerRecord,
		ForwardFLOPsPerRecord: g.Plan.ForwardFLOPsPerRecord(),
		LoadBytesPerRecord:    loadPerRecord,
		PeakMemoryBytes:       g.PeakMemBytes,
	})
	reg := t.Obs.Registry()
	cFlops := reg.Counter("trainer.compute_flops")
	cLoad := reg.Counter("trainer.load_bytes")
	cSteps := reg.Counter("trainer.steps")
	hWait := reg.Histogram("trainer.feed_wait_ns", feedWaitBuckets)
	samples := t.Obs.Samples()

	// The measured side of the Section 4.3.3 peak-memory estimate: params +
	// optimizer slots as a standing base, plus the tape's live-byte peak,
	// metered against the liveness table the estimate replays.
	var memBase int64
	if t.Obs.Enabled() {
		total, trainable := planModel.ParamCount()
		memBase = total*4 + trainable*4*opt.AdamSlotBytes
	}
	var es, bs *obs.Span
	defer func() { bs.End(); es.End() }() // close spans left open by error returns

	// One step scope serves every batch of the group, training and
	// validation alike: it recycles after each batch, so from the second
	// step on it allocates without a lock, and it goes back to the arena
	// when the group is done. The prefetcher cannot share it (a scope has
	// one owner), so feeds come in scopes of their own and Program.Run
	// re-headers them into step.
	step := t.Arena.Scope()
	defer step.Release()

	for epoch := 0; epoch < g.Epochs(); epoch++ {
		es = span.Child("train/epoch", obs.Int("epoch", int64(epoch)))
		batches := train.Batches(n, g.BatchSize(), rng)
		nextFeeds := t.feedPipeline(prog, feeds, snap, batches, span, gc)
		// Drain on every exit: an early error return below would otherwise
		// strand the prefetch goroutine blocked on send (and its feed scope
		// unrecycled). After a clean epoch the channel is already closed
		// and empty, so the deferred range is a no-op.
		defer func() {
			for fed := range nextFeeds {
				fed.scope.Release()
			}
		}()
		for bi, idx := range batches {
			bs = es.Child("train/batch", obs.Int("batch", int64(bi)), obs.Int("records", int64(len(idx))))
			ws := bs.Child("train/feed_wait")
			fed := <-nextFeeds
			wait := ws.End()
			hWait.Observe(wait.Nanoseconds())
			if fed.err != nil {
				fed.scope.Release()
				return nil, fed.err
			}
			tape := prog.Run(fed.feeds, graph.ForwardOptions{Train: true, Alloc: step})
			yb := train.GatherIn(step, snap.TrainY, idx)
			for i, b := range branches {
				logits := tape.Output(b.out)
				loss, grad := t.Loss.Compute(logits, yb)
				if grad == nil || !grad.SameShape(logits) {
					fed.scope.Release()
					return nil, fmt.Errorf("exec: loss gradient for branch %q has shape %v, want logits shape %v", b.out.Name, shapeOf(grad), logits.Shape())
				}
				lastLoss = loss
				outGrads[i] = grad
			}
			if err := tape.BackwardOutputs(outGrads, graph.BackwardOptions{}); err != nil {
				fed.scope.Release()
				return nil, err
			}
			for _, b := range branches {
				for j, k := range b.at {
					b.grads[j] = tape.ParamGradAt(k)
				}
				b.opt.StepEach(b.params, b.grads)
			}
			if m != nil {
				m.ComputeFLOPs += computePerRecord * int64(len(idx))
				m.LoadBytes += loadPerRecord * int64(len(idx))
				m.TrainSteps++
			}
			gc.ObservePeakMemory(memBase + tape.PeakBytes())
			gc.AddTrainRecords(int64(len(idx)))
			cFlops.Add(computePerRecord * int64(len(idx)))
			cLoad.Add(loadPerRecord * int64(len(idx)))
			cSteps.Add(1)
			// The optimizer has stepped and metering is done: every tensor
			// of this batch (feeds, activations, caches, gradients) is dead.
			step.Recycle()
			fed.scope.Release()
			// The batch's wall time minus the feed wait is pure compute: it
			// feeds both the conformance drift account (predicted vs actual
			// seconds) and the calibration sample log (FLOPs vs wall time).
			if d := bs.End() - wait; d > 0 {
				gc.AddComputeTime(d)
				samples.AddCompute(computePerRecord*int64(len(idx)), d)
			}
		}
		es.End()
	}

	// Validation per branch.
	results := make([]BranchResult, len(g.Items))
	for i := range results {
		results[i] = BranchResult{Item: g.Items[i], FinalLoss: lastLoss}
	}
	vn := snap.ValidSize()
	if vn > 0 {
		vs := span.Child("train/validate", obs.Int("records", int64(vn)))
		forwardPerRecord := g.Plan.ForwardFLOPsPerRecord()
		correctW := make([]float64, len(branches))
		lossW := make([]float64, len(branches))
		idxAll := make([]int, vn)
		for i := range idxAll {
			idxAll[i] = i
		}
		batch := g.BatchSize()
		for lo := 0; lo < vn; lo += batch {
			hi := lo + batch
			if hi > vn {
				hi = vn
			}
			idx := idxAll[lo:hi]
			fa := vs.Child("train/feed_assemble", obs.Int("records", int64(len(idx))))
			fed, err := t.batchFeeds(prog, feeds, Valid, snap.ValidX, idx, step)
			gc.AddLoadTime(fa.End())
			if err != nil {
				vs.End()
				return nil, err
			}
			vb := vs.Child("train/valid_batch", obs.Int("records", int64(len(idx))))
			tape := prog.Run(fed, graph.ForwardOptions{Alloc: step})
			yb := train.GatherIn(step, snap.ValidY, idx)
			w := float64(len(idx)) / float64(vn)
			for bi, b := range branches {
				out := tape.Output(b.out)
				correctW[bi] += t.Loss.Accuracy(out, yb) * w
				l, _ := t.Loss.Compute(out, yb)
				lossW[bi] += l * w
			}
			// Forward + scoring wall time is validation's compute leg.
			if d := vb.End(); d > 0 {
				gc.AddComputeTime(d)
				samples.AddCompute(forwardPerRecord*int64(len(idx)), d)
			}
			if m != nil {
				// Validation pays the forward-only share of the plan.
				m.ComputeFLOPs += forwardPerRecord * int64(len(idx))
				m.LoadBytes += loadPerRecord * int64(len(idx))
			}
			gc.AddValidRecords(int64(len(idx)))
			cFlops.Add(forwardPerRecord * int64(len(idx)))
			cLoad.Add(loadPerRecord * int64(len(idx)))
			step.Recycle()
		}
		vs.End()
		for i := range results {
			results[i].ValAcc = correctW[i]
			results[i].ValLoss = lossW[i]
		}
	}
	if m != nil {
		m.Wall += time.Since(started)
	}
	return results, nil
}

// batchFeeds assembles the feeds of one mini-batch in prog.Inputs() order:
// dataset inputs gather from the in-memory snapshot, materialized feeds
// read from the store. Every feed is allocated from s, so the whole step derives from
// recycled buffers.
func (t *Trainer) batchFeeds(prog *graph.Program, feedSigs map[string]graph.Signature, split Split, x *tensor.Tensor, idx []int, s *tensor.Scope) ([]*tensor.Tensor, error) {
	feeds := make([]*tensor.Tensor, len(prog.Inputs()))
	for k, in := range prog.Inputs() {
		if sig, ok := feedSigs[in.Name]; ok {
			rows, err := t.Store.ReadRowsIn(storeKey(sig, split), idx, s)
			if err != nil {
				return nil, fmt.Errorf("exec: read materialized %v: %w", sig, err)
			}
			feeds[k] = rows
			continue
		}
		feeds[k] = train.GatherIn(s, x, idx)
	}
	return feeds, nil
}

// shapeOf renders a possibly-nil tensor's shape for error messages.
func shapeOf(t *tensor.Tensor) []int {
	if t == nil {
		return nil
	}
	return t.Shape()
}

// Checkpoint writes the group's trained weights. Nautilus plans persist
// only trainable parameters (frozen weights reproduce from the hub), which
// is the disk-write reduction of Figure 11; pass full=true for the
// Current Practice behaviour of checkpointing entire models.
func (t *Trainer) Checkpoint(g *opt.FusedGroup, path string, full bool) error {
	sp := t.Obs.Start("train/checkpoint", obs.Str("group", g.Name()), obs.Bool("full", full))
	defer sp.End()
	planModel, _, err := opt.BuildPlanModel(g.Plan)
	if err != nil {
		return err
	}
	var counters *storage.Counters
	if t.Metrics != nil {
		counters = t.Metrics.Disk
	}
	return storage.SaveModel(path, planModel, storage.CheckpointOptions{TrainableOnly: !full}, counters)
}

// fedBatch is one prefetched mini-batch's feeds plus the feed scope they
// were allocated from; the compute loop releases the scope once the batch's
// optimizer step retires.
type fedBatch struct {
	feeds []*tensor.Tensor // in the program's input order
	scope *tensor.Scope
	err   error
}

// feedWaitBuckets sizes the feed-wait histogram (how long the compute loop
// blocked on the next batch's feeds): 1µs to 100ms in decade steps. With
// prefetch overlap working, observations should concentrate in the low
// buckets.
var feedWaitBuckets = []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}

// feedPipeline produces each batch's feeds in order. With Prefetch set, a
// goroutine assembles feeds one batch ahead (buffered channel of 1) so
// store reads overlap the previous batch's compute; otherwise feeds are
// assembled lazily on receive. Assembly spans are children of the group
// span on a separate track, so the trace shows the overlap (or its
// absence) directly against the batch spans. Each batch's feeds are
// assembled in a scope of their own whose ownership travels with the batch
// to the compute loop.
func (t *Trainer) feedPipeline(prog *graph.Program, feedSigs map[string]graph.Signature, snap data.Snapshot, batches [][]int, group *obs.Span, gc *obs.GroupConformance) <-chan fedBatch {
	buf := 0
	if t.Prefetch {
		buf = 1
	}
	ch := make(chan fedBatch, buf)
	go func() {
		defer close(ch)
		for bi, idx := range batches {
			as := group.Child("train/feed_assemble", obs.Int("batch", int64(bi)), obs.Int("records", int64(len(idx))))
			as.SetTrack(group.Track() + 2)
			// One feed scope per batch: the prefetcher fills batch t+1's
			// while batch t computes in the group's step scope.
			scope := t.Arena.Scope()
			feeds, err := t.batchFeeds(prog, feedSigs, Train, snap.TrainX, idx, scope)
			// Assembly time (store reads + host gathers) is the actual load
			// leg of the conformance drift account.
			gc.AddLoadTime(as.End())
			ch <- fedBatch{feeds: feeds, scope: scope, err: err}
			if err != nil {
				return
			}
		}
	}()
	return ch
}
