package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"nautilus/internal/core"
	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/workloads"
)

// miniHardware is the cost-model profile the mini-scale sessions plan
// against. The constants are experiments.MiniHardware's; they are pinned
// here so that the benchmark's plans do not move when an experiment's do.
func miniHardware(workers int) profile.Hardware {
	return profile.Hardware{FLOPSThroughput: 5e9, DiskThroughput: 500e6, WorkspaceBytes: 256 << 20, Workers: workers}
}

// trainWorkload is a multi-cycle model-selection session with real
// training at mini scale: every cycle the labeler releases perCycle more
// records (trainPer of them for training) and every candidate is trained
// from its initial weights on all records so far.
type trainWorkload struct {
	spec     workloads.Spec
	approach core.Approach
	cycles   int
	perCycle int
	trainPer int
}

// candAcc is one candidate's validation outcome in one cycle. The floats
// travel as their IEEE bits: parity means bit-identical, and JSON would
// round a decimal rendering.
type candAcc struct {
	Cycle    int    `json:"cycle"`
	Model    string `json:"model"`
	AccBits  uint64 `json:"val_acc_bits"`
	LossBits uint64 `json:"val_loss_bits"`
	// Acc repeats AccBits for people reading the golden file.
	Acc float64 `json:"val_acc"`
}

func (a candAcc) same(b candAcc) bool {
	return a.Cycle == b.Cycle && a.Model == b.Model && a.AccBits == b.AccBits && a.LossBits == b.LossBits
}

// trainRun is the state of one session: a freshly built instance, its pool
// and labeler, and the work directory. Building it is the session's set-up.
type trainRun struct {
	items   []opt.WorkItem
	mm      *mmg.MultiModel
	labeler *data.Labeler
	cfg     core.Config
	dir     string
	layer   map[string]float64
}

// maxRecords is the planner's initial r: the final cycle's training set is
// the first to exceed it, so every session takes the exponential-backoff
// replan (paper Section 4.2.3) once, on artifacts that already exist.
func (w trainWorkload) maxRecords() int {
	if w.cycles < 2 {
		return w.trainPer
	}
	return w.trainPer * (w.cycles - 1)
}

// setup builds the session state. approach and subset override the
// workload's own (subset nil keeps every candidate); the parity check uses
// them to re-train a few candidates the other way.
func (w trainWorkload) setup(e *env, approach core.Approach, subset []int) (*trainRun, error) {
	r := &trainRun{layer: map[string]float64{}}
	hw := miniHardware(e.workers)
	var inst *workloads.Instance
	d, err := timed(func() (err error) {
		inst, err = w.spec.Build(workloads.Mini, hw)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.layer["workloads.build_s"] = d
	r.items, r.mm = inst.Items, inst.MM
	if subset != nil {
		r.items = nil
		var models []*graph.Model
		for _, i := range subset {
			r.items = append(r.items, inst.Items[i])
			models = append(models, inst.Items[i].Model)
		}
		if r.mm, err = mmg.Build(models...); err != nil {
			return nil, err
		}
	}
	var pool *data.Pool
	r.layer["data.pool_s"], _ = timed(func() error {
		pool = inst.NewPool(e.seed)
		return nil
	})
	r.labeler = data.NewLabeler(pool, w.perCycle, w.trainPer)
	if r.dir, err = e.workDir(); err != nil {
		return nil, err
	}
	r.cfg = core.DefaultConfig(r.dir)
	r.cfg.Approach = approach
	r.cfg.HW = hw
	r.cfg.Seed = e.seed
	r.cfg.MaxRecords = w.maxRecords()
	r.cfg.TuneTablePath = e.tunePath
	return r, nil
}

// cycleAccs flattens one cycle's per-candidate outcomes, sorted by model.
func cycleAccs(cycle int, results []core.CandidateResult) []candAcc {
	out := make([]candAcc, len(results))
	for i, c := range results {
		out[i] = candAcc{Cycle: cycle, Model: c.Model, AccBits: math.Float64bits(c.ValAcc), LossBits: math.Float64bits(c.ValLoss), Acc: c.ValAcc}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// trainedRecords is the work one cycle completes: every candidate sees
// every training record once per epoch.
func trainedRecords(items []opt.WorkItem, trainSize int) float64 {
	var n float64
	for _, it := range items {
		n += float64(it.Epochs * trainSize)
	}
	return n
}

// dirBytes returns the bytes of the files under dir.
func dirBytes(dir string) float64 {
	var total int64
	// A file vanishing mid-walk only shrinks the footprint reading.
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return float64(total)
}

// account copies the execution counters into the layer map.
func (r *trainRun) account(res *sessionResult, m *exec.Metrics, wp *core.WorkloadPlan, store *storage.TensorStore) error {
	l := res.layer
	l["exec.train_steps"] = float64(m.TrainSteps)
	l["exec.train_records"] = res.work
	l["exec.compute_flops"] = float64(m.ComputeFLOPs)
	l["exec.load_bytes"] = float64(m.LoadBytes)
	l["storage.bytes_read"] = float64(m.Disk.BytesRead())
	l["storage.bytes_written"] = float64(m.Disk.BytesWritten())
	l["storage.reads"] = float64(m.Disk.Reads())
	l["storage.writes"] = float64(m.Disk.Writes())
	l["storage.footprint_mb"] = dirBytes(r.dir) / 1e6
	l["storage.checkpoint_bytes"] = dirBytes(filepath.Join(r.dir, "checkpoints"))
	if wp != nil {
		l["core.groups"] = float64(len(wp.Groups))
		l["core.materialized_sigs"] = float64(len(wp.MatSigs))
		l["opt.plan_cost"] = float64(opt.TotalPlanCost(wp.Groups))
		l["opt.mat_nodes"] = float64(wp.Stats.MatSolveNodes)
		l["opt.fuse_states"] = float64(wp.Stats.Fuse.PairsEvaluated)
	}
	if store != nil {
		if hits, misses := store.CacheStats(); hits+misses > 0 {
			l["storage.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		// Nothing was collected mid-session unless a replan orphaned an
		// artifact, so the rows held are the rows materialized.
		keys, err := store.Keys()
		if err != nil {
			return err
		}
		for _, key := range keys {
			n, err := store.Count(key)
			if err != nil {
				return err
			}
			l["exec.materialize_rows"] += float64(n)
		}
	}
	return nil
}

// session runs the workload the way a user does: core.New, then one Fit per
// labeling cycle (the loop core.Run wraps, kept here for the per-candidate
// results Run does not return).
func (w trainWorkload) session(e *env, approach core.Approach, subset []int) (*sessionResult, error) {
	res := &sessionResult{}
	var r *trainRun
	var ms *core.ModelSelection
	var err error
	res.setupS, err = timed(func() (err error) {
		if r, err = w.setup(e, approach, subset); err != nil {
			return err
		}
		ms, err = core.New(r.items, r.mm, r.cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)
	res.layer = r.layer
	t0 := now()
	for k := 1; k <= w.cycles; k++ {
		c0 := now()
		snap, _, _ := r.labeler.NextCycle()
		fit, err := ms.Fit(snap)
		if err != nil {
			_ = ms.Close() // already failing; Fit's error wins
			return nil, fmt.Errorf("cycle %d: %w", k, err)
		}
		res.cycles = append(res.cycles, since(c0))
		res.accs = append(res.accs, cycleAccs(k, fit.Results)...)
		res.work += trainedRecords(r.items, snap.TrainSize())
		if fit.ReOptimized {
			res.layer["core.replans"]++
			res.layer["core.groups_checked"] += float64(ms.LastDelta().GroupsChecked)
		}
	}
	if err := ms.Close(); err != nil {
		return nil, err
	}
	res.wall = since(t0)
	res.workS = res.wall
	res.ops = len(res.accs)
	return res, r.account(res, ms.Metrics(), ms.Planner().Plan(), nil)
}

// staged is the traced driver: it performs Fit's steps as separate public
// calls, each inside a span, so that a cycle splits by layer. It must give
// bit-identical accuracies to session, which is the proof that it timed the
// same work. The step order and arguments follow core.ModelSelection.Fit
// and applyPlan; cfg.Obs stays nil.
func (w trainWorkload) staged(e *env, rec *recorder) (res *sessionResult, err error) {
	res = &sessionResult{}
	var r *trainRun
	var (
		metrics *exec.Metrics
		store   *storage.TensorStore
		arena   *tensor.Arena
		trainer *exec.Trainer
		planner *core.Planner
	)
	res.setupS, err = timed(func() (err error) {
		if r, err = w.setup(e, w.approach, nil); err != nil {
			return err
		}
		r.layer["core.new_s"], err = timed(func() (err error) {
			metrics = exec.NewMetrics()
			if store, err = storage.NewTensorStore(filepath.Join(r.dir, "store"), metrics.Disk); err != nil {
				return err
			}
			store.EnableCache(r.cfg.PageCacheBytes)
			if err = os.MkdirAll(filepath.Join(r.dir, "checkpoints"), 0o755); err != nil {
				return err
			}
			arena = tensor.NewArena()
			trainer = &exec.Trainer{Store: store, Loss: r.cfg.Loss, Seed: r.cfg.Seed, Metrics: metrics, Prefetch: r.cfg.Prefetch, Arena: arena}
			planner, err = core.NewPlanner(r.items, r.mm, r.cfg)
			return err
		})
		return err
	})
	if r != nil {
		defer os.RemoveAll(r.dir)
	}
	if store != nil {
		defer func() {
			if cerr := store.Close(); err == nil {
				err = cerr
			}
		}()
	}
	if err != nil {
		return nil, err
	}
	res.layer = r.layer

	session := rec.start("session", -1, 0)
	var mz *exec.Materializer
	var snap data.Snapshot
	for k := 1; k <= w.cycles; k++ {
		cyc := rec.start("cycle", session, k)
		stage := func(name string, fn func() error) error { return rec.do(name, cyc, k, fn) }
		_ = stage("data.next_cycle", func() error {
			snap, _, _ = r.labeler.NextCycle()
			return nil
		})
		planner.GrowData(snap.TrainSize())
		if planner.NeedsReplan() {
			var wp *core.WorkloadPlan
			var delta *core.PlanDelta
			if err := stage("core.replan", func() (err error) {
				wp, delta, err = planner.Replan()
				return err
			}); err != nil {
				return nil, err
			}
			res.layer["core.replans"]++
			res.layer["core.groups_checked"] += float64(delta.GroupsChecked)
			if err := stage("exec.reconcile", func() error {
				_, err := exec.ReconcileArtifacts(store, delta.OldSigs(), wp.MatSigs)
				return err
			}); err != nil {
				return nil, err
			}
			mz = nil
			if len(wp.MatSigs) > 0 {
				if err := stage("exec.reconcile", func() (err error) {
					mz, err = exec.NewMaterializer(store, planner.MultiModel(), wp.MatSigs)
					return err
				}); err != nil {
					return nil, err
				}
				if mz != nil {
					mz.Prefetch = r.cfg.Prefetch
					mz.Arena = arena
				}
			}
		}
		if mz != nil {
			if err := stage("exec.materialize", func() error {
				if err := mz.SyncSplit(exec.Train, snap.TrainX); err != nil {
					return err
				}
				return mz.SyncSplit(exec.Valid, snap.ValidX)
			}); err != nil {
				return nil, err
			}
		}
		_ = stage("core.reset_params", func() error {
			for _, it := range planner.Items() {
				for _, p := range it.Model.TrainableParams() {
					p.Reset()
				}
			}
			return nil
		})
		var results []core.CandidateResult
		for gi, g := range planner.Plan().Groups {
			var branches []exec.BranchResult
			if err := stage("exec.train_group", func() (err error) {
				branches, err = trainer.TrainGroup(g, snap)
				return err
			}); err != nil {
				return nil, err
			}
			for _, b := range branches {
				results = append(results, core.CandidateResult{Model: b.Item.Model.Name, ValAcc: b.ValAcc, ValLoss: b.ValLoss, Item: b.Item})
			}
			ckpt := filepath.Join(r.dir, "checkpoints", fmt.Sprintf("cycle%d_group%d.nckp", k, gi))
			if err := stage("exec.checkpoint", func() error {
				return trainer.Checkpoint(g, ckpt, w.approach == core.CurrentPractice)
			}); err != nil {
				return nil, err
			}
		}
		rec.end(cyc)
		res.cycles = append(res.cycles, rec.spans[cyc].dur())
		res.accs = append(res.accs, cycleAccs(k, results)...)
		res.work += trainedRecords(r.items, snap.TrainSize())
	}
	rec.end(session)
	res.wall = rec.spans[session].dur()
	res.workS = res.wall
	res.ops = len(res.accs)
	if err := r.account(res, metrics, planner.Plan(), store); err != nil {
		return nil, err
	}
	var replans []float64
	for _, s := range rec.spans[session:] {
		if s.Name == "core.replan" {
			replans = append(replans, s.dur())
		}
	}
	res.layer["core.replan_p50_ms"] = 1000 * quantile(replans, 0.5)
	res.layer["core.replan_p80_ms"] = 1000 * quantile(replans, 0.8)
	for name, d := range totalsUnder(rec.spans, session) {
		if name != "cycle" {
			res.layer[name+"_s"] += d
		}
	}
	res.layer["bench.unattributed_pct"] = unattributedPct(rec.spans, session)
	if d := res.layer["exec.train_group_s"]; d > 0 {
		res.layer["exec.effective_gflops"] = float64(metrics.ComputeFLOPs) / d / 1e9
	}

	// The probes below use the session's live store, plan and arena; they
	// run after the session span closed and after its results were taken.
	if err := probePlanning(res.layer, planner.Items(), planner.MultiModel(), r.cfg, planner.MaxRecords()); err != nil {
		return nil, err
	}
	if err := probeStep(res.layer, planner.Plan().Groups[0], snap, store, arena, r.cfg); err != nil {
		return nil, err
	}
	return res, nil
}
