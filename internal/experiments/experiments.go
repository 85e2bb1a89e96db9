// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Paper-scale experiments drive the real optimizer
// over BERT-base / ResNet-50 topology profiles and replay the resulting
// plans on the cost-clock simulator; the learning-curve experiment
// (Figure 7) additionally runs real mini-scale training through the same
// code path. cmd/nautilus-bench and the repository's bench_test.go both
// print their rows from here.
package experiments

import (
	"fmt"
	"io"

	"nautilus/internal/core"
	"nautilus/internal/graph"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/simclock"
	"nautilus/internal/workloads"
)

// printer accumulates the first write error so table renderers stay terse;
// the renderer returns it once at the end instead of checking every row.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

// paperMaxRecords is the expected maximum number of records r configured
// for paper-scale runs: 10 cycles × 500 records.
const paperMaxRecords = 5000

// PaperConfig returns the experiment configuration of Section 5: 25 GB
// disk budget, 10 GB memory budget, Titan-X-class throughput.
func PaperConfig(approach core.Approach) core.Config {
	cfg := core.DefaultConfig("")
	cfg.Approach = approach
	cfg.MaxRecords = paperMaxRecords
	if fuserName != "" {
		cfg.Fuser = fuserName
	}
	cfg.FuseStateBudget = fuserBudget
	return cfg
}

// fuserName/fuserBudget override the fusion strategy for every experiment
// config (nautilus-bench -fuser / -fuse-budget).
var (
	fuserName   string
	fuserBudget int
)

// SetFuser applies a fusion-strategy override to all subsequently built
// experiment configs. Empty name keeps each experiment's own default.
func SetFuser(name string, budget int) { fuserName, fuserBudget = name, budget }

// instanceCache memoizes built paper-scale workload instances (building 36
// BERT-base candidates and profiling them is not free).
var instanceCache = map[string]*workloads.Instance{}

// PaperInstance builds (or returns the cached) paper-scale instance of a
// workload.
func PaperInstance(spec workloads.Spec) (*workloads.Instance, error) {
	if inst, ok := instanceCache[spec.Name]; ok {
		return inst, nil
	}
	inst, err := spec.Build(workloads.Paper, profile.DefaultHardware())
	if err != nil {
		return nil, err
	}
	instanceCache[spec.Name] = inst
	return inst, nil
}

// planCache memoizes workload plans keyed by (workload, approach, budgets,
// solver, fusion strategy).
var planCache = map[string]*core.WorkloadPlan{}

// planFor runs PlanWorkload with memoization.
func planFor(inst *workloads.Instance, cfg core.Config) (*core.WorkloadPlan, error) {
	key := fmt.Sprintf("%s|%s|%d|%d|%s|%s|%d", inst.Spec.Name, cfg.Approach, cfg.DiskBudgetBytes, cfg.MemBudgetBytes, cfg.Solver, cfg.Fuser, cfg.FuseStateBudget)
	if wp, ok := planCache[key]; ok {
		return wp, nil
	}
	wp, err := core.PlanWorkload(inst.Items, inst.MM, cfg, cfg.MaxRecords)
	if err != nil {
		return nil, err
	}
	planCache[key] = wp
	return wp, nil
}

// SimulateApproach plans one approach for a paper-scale instance and
// replays it on the cost clock.
func SimulateApproach(inst *workloads.Instance, cfg core.Config) (*simclock.Result, *core.WorkloadPlan, error) {
	wp, err := planFor(inst, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := simulatePlanned(inst, cfg, wp)
	if err != nil {
		return nil, nil, err
	}
	return res, wp, nil
}

// simulatePlanned replays an already-computed workload plan on the cost
// clock.
func simulatePlanned(inst *workloads.Instance, cfg core.Config, wp *core.WorkloadPlan) (*simclock.Result, error) {
	matFLOPs, matBytes, err := MaterializationCost(inst, wp.MatSigs)
	if err != nil {
		return nil, err
	}
	full := cfg.Approach.FullCheckpoints() // the unmodified baseline: nothing profiled, whole checkpoints
	w := simclock.Workload{
		Items:             inst.Items,
		Groups:            wp.Groups,
		MatSigs:           wp.MatSigs,
		MatFLOPsPerRecord: matFLOPs,
		MatBytesPerRecord: matBytes,
		OptimizeSec:       wp.Stats.OptimizeTime.Seconds(),
		ProfileModels:     !full,
		FullCheckpoints:   full,
	}
	return simclock.Simulate(w, simclock.PaperSchedule(), cfg.HW, simclock.DefaultOverheads())
}

// MaterializationCost prices one record's materialization pass: the FLOPs
// of computing every chosen output (the ancestor closure of V in the
// multi-model graph, each merged node once) and the bytes written.
func MaterializationCost(inst *workloads.Instance, sigs map[graph.Signature]bool) (flops, bytes int64, err error) {
	if len(sigs) == 0 {
		return 0, 0, nil
	}
	prof, err := profile.Profile(inst.MM.Graph, inst.Items[0].Prof.HW)
	if err != nil {
		return 0, 0, err
	}
	var chosen []*graph.Node
	for _, n := range inst.MM.Graph.Nodes() {
		if sigs[inst.MM.Sig(n)] {
			chosen = append(chosen, n)
			bytes += prof.Layer(n).OutBytes
		}
	}
	// The ancestor closure of V is what a view with V as its outputs reaches.
	for i, needed := range inst.MM.Graph.WithOutputs(chosen...).MarkReachable(nil) {
		if needed {
			flops += prof.Layers[i].ForwardFLOPs
		}
	}
	return flops, bytes, nil
}

// TheoreticalSpeedup re-exports the Equation 11 bound for a built
// instance.
func TheoreticalSpeedup(inst *workloads.Instance) float64 {
	return opt.TheoreticalSpeedup(inst.Items)
}

// Minutes converts seconds to minutes for report rows.
func Minutes(sec float64) float64 { return sec / 60 }
