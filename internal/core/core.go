// Package core is Nautilus's public-facing system layer (paper Figure 3):
// a model-selection object over a candidate set Q = {(M_i, ϕ_i)} that, per
// data-labeling cycle, (re-)optimizes the workload with the
// materialization and model fusion optimizations, incrementally
// materializes chosen intermediates, trains the optimized plans with one
// optimizer per branch, and reports the best candidate by validation
// accuracy.
//
// The Approach knob also exposes every baseline the paper evaluates
// (Current Practice, MAT-ALL, Nautilus without either optimization), so
// the experiment harness drives all approaches through one code path: an
// approach is a row of approachSpecs — a V policy, a plan policy and
// whether candidates fuse — and the planner's stages read the row. Groups
// are built by opt.SingletonGroups / opt.Fuser and checked by
// verify.Groups, every group on every replan.
// Config.RegisterFlags and Config.Resolve are the one front door the
// commands configure a run through.
package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nautilus/internal/data"
	"nautilus/internal/exec"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/storage"
	"nautilus/internal/tensor"
	"nautilus/internal/tensor/tune"
	"nautilus/internal/train"
)

// Approach selects the execution strategy for a workload.
type Approach string

// Approaches evaluated in the paper (Sections 5.1 and 5.3).
const (
	// Nautilus applies both MAT OPT and FUSE OPT.
	Nautilus Approach = "nautilus"
	// CurrentPractice trains unmodified models independently, writing
	// full checkpoints — the naive baseline.
	CurrentPractice Approach = "current_practice"
	// MatAll materializes every materializable layer and always loads at
	// the frontier, regardless of cost.
	MatAll Approach = "mat_all"
	// NautilusNoFuse disables model fusion (Figure 8 ablation).
	NautilusNoFuse Approach = "nautilus_no_fuse"
	// NautilusNoMat disables materialization (Figure 8 ablation).
	NautilusNoMat Approach = "nautilus_no_mat"
)

// matPolicy is how an approach picks the materialized set V.
type matPolicy int

const (
	matNone matPolicy = iota // V = ∅
	matAll                   // every materializable layer
	matOpt                   // MAT OPT (Section 4.2)
)

// approachSpec is everything an Approach decides. The planner stages, Fit,
// the simulator and the CLIs' flag help all read this one table.
type approachSpec struct {
	name Approach
	mat  matPolicy
	// plan is how each group's reuse plan is chosen given V.
	plan opt.PlanPolicy
	// fuse says FUSE OPT groups the candidates under B_mem; otherwise
	// every candidate trains as a group of its own.
	fuse bool
	// fullCheckpoints marks the unmodified baseline: checkpoints hold
	// every parameter, not just the trainable ones.
	fullCheckpoints bool
}

var approachSpecs = []approachSpec{
	{name: CurrentPractice, mat: matNone, plan: opt.UnmodifiedPlan, fullCheckpoints: true},
	{name: MatAll, mat: matAll, plan: opt.LoadFrontierPlan},
	{name: Nautilus, mat: matOpt, plan: opt.ReusePlan, fuse: true},
	{name: NautilusNoFuse, mat: matOpt, plan: opt.ReusePlan},
	{name: NautilusNoMat, mat: matNone, plan: opt.ReusePlan, fuse: true},
}

// spec looks the approach up in the table; ok is false for an unknown one.
func (a Approach) spec() (approachSpec, bool) {
	for _, s := range approachSpecs {
		if s.name == a {
			return s, true
		}
	}
	return approachSpec{}, false
}

// FullCheckpoints reports whether the approach is the unmodified baseline
// (Current Practice): models are trained as given and checkpointed whole,
// and nothing is profiled or optimized first.
func (a Approach) FullCheckpoints() bool {
	s, _ := a.spec()
	return s.fullCheckpoints
}

// ApproachNames lists every runnable approach as one comma-separated
// string, for flag help.
func ApproachNames() string {
	names := make([]string, len(approachSpecs))
	for i, s := range approachSpecs {
		names[i] = string(s.name)
	}
	return strings.Join(names, ", ")
}

// Config holds the system configuration (Section 3, API component).
type Config struct {
	Approach Approach
	HW       profile.Hardware
	// DiskBudgetBytes is B_disk (paper default 25 GB).
	DiskBudgetBytes int64
	// MemBudgetBytes is B_mem (paper default 10 GB).
	MemBudgetBytes int64
	// MaxRecords is the initial expected maximum training records r; it
	// grows by exponential backoff (factor 2) when exceeded.
	MaxRecords int
	// Solver, Fuser and FuseStateBudget are the retired optimizer
	// selection, which bench/ still sets: MAT OPT is branch & bound over
	// min-cut and FUSE OPT is Algorithm 1, so New and PlanWorkload accept
	// only the defaults — Solver "" or "bnb", Fuser "" or "greedy",
	// FuseStateBudget 0 — and return a *ConfigError otherwise. ROADMAP
	// item 3(1)'s benchmark PR removes the three fields.
	Solver          string
	Fuser           string
	FuseStateBudget int
	// WorkDir hosts the tensor store and checkpoints.
	WorkDir string
	// Seed drives mini-batch shuffling.
	Seed int64
	// Loss defaults to softmax cross-entropy.
	Loss train.Loss
	// PageCacheBytes sizes the tensor store's DRAM row cache (the OS
	// page-cache stand-in, Section 3). 0 disables it.
	PageCacheBytes int64
	// Prefetch overlaps feed assembly with compute during training.
	Prefetch bool
	// Obs, when set, threads structured tracing, the metrics registry, and
	// the cost-model conformance account through the planner, materializer,
	// trainer, and tensor store. nil (the default) disables all
	// instrumentation at nil-check cost.
	Obs *obs.Tracer
	// CalibrationPath, when non-empty, names a calibration file
	// (profile.Calibration JSON fitted by nautilus-run -calibrate-out);
	// its measured throughputs override HW's static constants before
	// planning, so the cost model runs against this machine rather than the
	// paper's reference hardware.
	CalibrationPath string
	// TuneTablePath, when non-empty, names an autotuned kernel-schedule
	// table (tune.Table JSON regenerated by `make tune`); loading it
	// installs the table as the tensor kernels' schedule source, so hot
	// paths dispatch on measured per-shape schedules instead of the
	// built-in heuristics. Shapes missing from the table still fall back
	// to the heuristics.
	TuneTablePath string
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig(workDir string) Config {
	return Config{
		Approach:        Nautilus,
		HW:              profile.DefaultHardware(),
		DiskBudgetBytes: 25 << 30,
		MemBudgetBytes:  10 << 30,
		MaxRecords:      1000,
		WorkDir:         workDir,
		Seed:            1,
		Loss:            train.SoftmaxCrossEntropy{},
		PageCacheBytes:  2 << 30,
		Prefetch:        true,
	}
}

// gbFlag is a byte budget read and shown in GB.
type gbFlag struct{ bytes *int64 }

func (g gbFlag) String() string {
	if g.bytes == nil {
		return ""
	}
	return strconv.FormatFloat(float64(*g.bytes)/(1<<30), 'g', -1, 64)
}

// maxGB is the first GB count whose byte count overflows int64.
const maxGB = 1 << 33

// Set parses a GB count from 0 up to, not including, maxGB; NaN, infinities
// and negative counts are errors.
func (g gbFlag) Set(s string) error {
	gb, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	if !(gb >= 0 && gb < maxGB) {
		return fmt.Errorf("want a GB count at least 0 and below %d", maxGB)
	}
	*g.bytes = int64(gb * (1 << 30))
	return nil
}

// RegisterFlags declares the planner's command-line flags on fs, bound to
// the configuration's fields — the one place their names and help live.
// Each flag defaults to the field's value at the time of the call, so a
// command sets its own defaults first.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar((*string)(&c.Approach), "approach", string(c.Approach), "approach: "+ApproachNames())
	fs.Var(gbFlag{&c.DiskBudgetBytes}, "disk-gb", "disk storage budget B_disk in `GB`")
	fs.Var(gbFlag{&c.MemBudgetBytes}, "mem-gb", "runtime memory budget B_mem in `GB`")
	fs.IntVar(&c.MaxRecords, "max-records", c.MaxRecords, "expected maximum training records r")
	fs.StringVar(&c.CalibrationPath, "calibration", c.CalibrationPath, "plan against measured constants from this calibration file (nautilus-run -calibrate-out)")
	fs.StringVar(&c.TuneTablePath, "tune-table", c.TuneTablePath, "dispatch tensor kernels on this autotuned schedule table (make tune)")
}

// Resolve applies the configuration's file-backed settings, the one place
// either file is read: CalibrationPath's measured throughputs replace HW's
// constants, and TuneTablePath's table becomes the tensor kernels' schedule
// source. It returns the table's coverage under the active worker cap (""
// without a table) and a typed *ConfigError for an unreadable file. New and
// PlanWorkload call it; a command that needs the resolved HW earlier — to
// profile its workload against it — calls it itself. Resolving twice lands
// on the same values.
func (c *Config) Resolve() (tuneCoverage string, err error) {
	if c.CalibrationPath != "" {
		hw, err := profile.LoadHardware(c.CalibrationPath, c.HW)
		if err != nil {
			return "", &ConfigError{Field: "CalibrationPath", Reason: err.Error()}
		}
		c.HW = hw
	}
	if c.TuneTablePath != "" {
		table, err := tune.Load(c.TuneTablePath)
		if err != nil {
			return "", &ConfigError{Field: "TuneTablePath", Reason: err.Error()}
		}
		tensor.SetScheduleSource(table)
		workers := c.HW.Workers
		if workers <= 0 {
			workers = tensor.MaxWorkers()
		}
		tuneCoverage = table.Coverage(workers)
	}
	return tuneCoverage, nil
}

// InitStats breaks down workload initialization time (Figure 6B's
// "workload initialization" bar).
type InitStats struct {
	OptimizeTime  time.Duration
	MatSolveNodes int
	// Materialized is the chosen |V| and its storage footprint.
	Materialized int
	StorageBytes int64
	// Groups is the number of training groups after fusion.
	Groups int
	// Fuse carries FUSE OPT's (Algorithm 1's) counters for the last
	// (re-)optimization (zero-valued for the singleton approaches).
	Fuse opt.FuseStats
}

// CandidateResult reports one candidate model's outcome for a cycle.
type CandidateResult struct {
	Model   string
	ValAcc  float64
	ValLoss float64
	Item    opt.WorkItem
}

// FitResult reports one model-selection cycle.
type FitResult struct {
	Cycle   int
	Best    CandidateResult
	Results []CandidateResult
	// Duration is the cycle's elapsed wall time (planning + materialization
	// + training). Groups train concurrently, so it is shorter than the
	// busy time exec.Metrics.Wall sums over them.
	Duration time.Duration
	// ReOptimized reports whether exponential backoff re-ran the
	// optimizer this cycle.
	ReOptimized bool
}

// ModelSelection is the Nautilus model-selection object. Create one per
// workload, then call Fit once per labeling cycle with the accumulated
// snapshot. Planning state (candidates, r, the current plan) lives in an
// embedded planner session; ModelSelection owns execution: the tensor
// store, the materializer, and the trainer.
type ModelSelection struct {
	cfg     Config
	planner *Planner

	metrics *exec.Metrics
	store   *storage.TensorStore
	trainer *exec.Trainer

	materializer *exec.Materializer
	lastDelta    *PlanDelta
	cycle        int
	arena        *tensor.Arena
	tuning       string // tune.Table.Coverage of the loaded schedule table
}

// New creates a model-selection object for the candidate set. Invalid
// budget/solver configuration is rejected with a typed *ConfigError.
func New(items []opt.WorkItem, mm *mmg.MultiModel, cfg Config) (*ModelSelection, error) {
	if cfg.Loss == nil {
		cfg.Loss = train.SoftmaxCrossEntropy{}
	}
	if cfg.Approach == "" {
		cfg.Approach = Nautilus
	}
	tuning, err := cfg.Resolve()
	if err != nil {
		return nil, err
	}
	// Hand the planning rates to the conformance account so group reports
	// can compare predicted seconds (FLOPs/rate, bytes/rate) against the
	// wall time the trainer meters.
	cfg.Obs.Conformance().SetRates(cfg.HW.FLOPSThroughput, cfg.HW.DiskThroughput)
	planner, err := NewPlanner(items, mm, cfg)
	if err != nil {
		return nil, err
	}
	// The checkpoint directory comes first: an error after the store opens
	// would leave it open.
	if err := os.MkdirAll(filepath.Join(cfg.WorkDir, "checkpoints"), 0o755); err != nil {
		return nil, err
	}
	metrics := exec.NewMetrics()
	store, err := storage.NewTensorStore(filepath.Join(cfg.WorkDir, "store"), metrics.Disk)
	if err != nil {
		return nil, err
	}
	if cfg.PageCacheBytes > 0 {
		store.EnableCache(cfg.PageCacheBytes)
	}
	store.SetObs(cfg.Obs)
	if cfg.HW.Workers > 0 {
		tensor.SetMaxWorkers(cfg.HW.Workers)
	}
	// One step-scoped arena recycles tensors across mini-batches and
	// materialization chunks; results are bit-identical to heap allocation
	// (exec.Trainer.Arena == nil, the tests' reference).
	arena := tensor.NewArena()
	return &ModelSelection{
		cfg:     cfg,
		planner: planner,
		metrics: metrics,
		store:   store,
		arena:   arena,
		trainer: &exec.Trainer{Store: store, Loss: cfg.Loss, Seed: cfg.Seed, Metrics: metrics, Prefetch: cfg.Prefetch, Arena: arena, Obs: cfg.Obs},
		tuning:  tuning,
	}, nil
}

// Close releases the tensor store.
func (ms *ModelSelection) Close() error { return ms.store.Close() }

// Metrics exposes accumulated execution accounting.
func (ms *ModelSelection) Metrics() *exec.Metrics { return ms.metrics }

// TuneCoverage reports how much of the Config.TuneTablePath table applies
// under the active worker cap (tune.Table.Coverage; "" without a table), so
// a table tuned for another cap is not a silent no-op.
func (ms *ModelSelection) TuneCoverage() string { return ms.tuning }

// Planner exposes the planning session (candidates, r, current plan).
func (ms *ModelSelection) Planner() *Planner { return ms.planner }

// InitStats returns the optimizer statistics of the last (re-)optimization.
func (ms *ModelSelection) InitStats() *InitStats {
	if ms.planner.wp == nil {
		return nil
	}
	stats := ms.planner.wp.Stats
	return &stats
}

// LastDelta returns the plan delta of the most recent replan (nil before
// the first Fit): which signatures were kept, newly materialized, and
// garbage-collected.
func (ms *ModelSelection) LastDelta() *PlanDelta { return ms.lastDelta }

// Fit runs one model-selection cycle on the snapshot: it (re-)optimizes if
// needed (first call, or the exponential backoff limit was crossed),
// incrementally materializes, trains every group, and returns per-candidate
// validation results.
func (ms *ModelSelection) Fit(snap data.Snapshot) (*FitResult, error) {
	started := time.Now()
	ms.cycle++
	span := ms.cfg.Obs.Start("core/fit",
		obs.Int("cycle", int64(ms.cycle)),
		obs.Int("train_records", int64(snap.TrainSize())))
	defer span.End()
	reopt, err := ms.ensurePlanned(snap.TrainSize())
	if err != nil {
		return nil, err
	}
	span.Attr(obs.Bool("reoptimized", reopt))
	if ms.materializer != nil {
		if err := ms.materializer.SyncSplit(exec.Train, snap.TrainX); err != nil {
			return nil, err
		}
		if err := ms.materializer.SyncSplit(exec.Valid, snap.ValidX); err != nil {
			return nil, err
		}
	}

	// Model selection restarts every candidate from its initial weights.
	for _, it := range ms.planner.items {
		for _, p := range it.Model.TrainableParams() {
			p.Reset()
		}
	}

	res := &FitResult{Cycle: ms.cycle, ReOptimized: reopt}
	full := ms.cfg.Approach.FullCheckpoints()
	trained, err := ms.trainer.TrainGroups(ms.planner.wp.Groups, snap, ms.cfg.MemBudgetBytes, func(gi int, g *opt.FusedGroup) error {
		ckpt := filepath.Join(ms.cfg.WorkDir, "checkpoints", fmt.Sprintf("cycle%d_group%d.nckp", ms.cycle, gi))
		return ms.trainer.Checkpoint(g, ckpt, full)
	})
	if err != nil {
		return nil, err
	}
	res.Results = candidateResults(trained)
	sort.Slice(res.Results, func(i, j int) bool { return res.Results[i].Model < res.Results[j].Model })
	res.Best = bestResult(res.Results)
	res.Duration = time.Since(started)
	// Physical disk traffic so far, checkpoints included: the store.*
	// counters carry only the tensor store's share.
	if reg := ms.cfg.Obs.Registry(); reg != nil && ms.metrics.Disk != nil {
		reg.Gauge("exec.disk_read_bytes").Set(ms.metrics.Disk.BytesRead())
		reg.Gauge("exec.disk_written_bytes").Set(ms.metrics.Disk.BytesWritten())
	}
	return res, nil
}

// WorkloadPlan is the output of PlanWorkload: the optimized (or baseline)
// training plan for a candidate set.
type WorkloadPlan struct {
	Groups  []*opt.FusedGroup
	MatSigs map[graph.Signature]bool
	Stats   InitStats
}

// PlanWorkload produces the training plan for the given approach: the
// materialized set V and the grouped reuse plans. Both the live system
// (ModelSelection) and the paper-scale simulator consume it, so simulated
// experiments replay exactly the decisions the real system makes. It is a
// one-shot front door to the staged planner session (candidates and the
// retired selection fields are validated, the budgets are not: experiments
// legitimately sweep degenerate budgets).
func PlanWorkload(items []opt.WorkItem, mm *mmg.MultiModel, cfg Config, maxRecords int) (*WorkloadPlan, error) {
	if _, err := cfg.Resolve(); err != nil {
		return nil, err
	}
	if err := validateSelection(cfg); err != nil {
		return nil, err
	}
	if err := validateCandidates(items); err != nil {
		return nil, err
	}
	p := newPlanner(items, mm, cfg)
	p.r = maxRecords
	wp, _, err := p.Replan()
	return wp, err
}

// ensurePlanned reacts to dataset growth and pending evolution events: it
// grows r by exponential backoff (Section 4.2.3), replans if anything is
// dirty, and reconciles on-disk artifacts against the plan delta. Returns
// whether a replan ran.
func (ms *ModelSelection) ensurePlanned(trainSize int) (bool, error) {
	ms.planner.GrowData(trainSize)
	if !ms.planner.NeedsReplan() {
		return false, nil
	}
	wp, delta, err := ms.planner.Replan()
	if err != nil {
		return false, err
	}
	if err := ms.applyPlan(wp, delta); err != nil {
		return false, err
	}
	return true, nil
}

// candidateResults flattens per-group branch results, in plan order.
func candidateResults(trained [][]exec.BranchResult) []CandidateResult {
	var out []CandidateResult
	for _, branches := range trained {
		for _, b := range branches {
			out = append(out, CandidateResult{Model: b.Item.Model.Name, ValAcc: b.ValAcc, ValLoss: b.ValLoss, Item: b.Item})
		}
	}
	return out
}

// bestResult picks the cycle winner: highest validation accuracy, ties
// broken deterministically by model name. results must be name-sorted;
// seeding from the first entry keeps Best populated even when every
// candidate scores ValAcc <= 0.
func bestResult(results []CandidateResult) CandidateResult {
	if len(results) == 0 {
		return CandidateResult{}
	}
	best := results[0]
	for _, r := range results[1:] {
		if r.ValAcc > best.ValAcc {
			best = r
		}
	}
	return best
}
