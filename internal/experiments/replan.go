package experiments

import (
	"fmt"
	"io"
	"os"

	"nautilus/internal/core"
	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
)

// ReplanResult compares the materialization cost of an incremental
// AddCandidates replan (the planner session reuses the overlapping V on
// disk) against planning the same final workload from scratch.
type ReplanResult struct {
	// BaseModels / FinalModels size the workload before and after the
	// evolution event.
	BaseModels  int `json:"base_models"`
	FinalModels int `json:"final_models"`
	// BaselineBytes is what the initial (base-workload) plan materialized.
	BaselineBytes int64 `json:"baseline_bytes"`
	// IncrementalBytes is the materialization traffic of the Fit after
	// AddCandidates: only the plan delta's new signatures.
	IncrementalBytes int64 `json:"incremental_bytes"`
	// FullBytes is the traffic of a cold run over the final workload.
	FullBytes int64 `json:"full_bytes"`
	// SavingsPct = 100 × (1 − incremental/full).
	SavingsPct float64 `json:"savings_pct"`
	// Plan-delta shape of the incremental replan.
	KeptSigs     int `json:"kept_sigs"`
	NewSigs      int `json:"new_sigs"`
	OrphanedSigs int `json:"orphaned_sigs"`
	// GroupsTotal is the replanned training plan's group count, each
	// statically verified.
	GroupsTotal int `json:"groups_total"`
}

// replanWorkload builds the 4-model feature-transfer candidate set used by
// the replan benchmark (2 shared strategies × 2 learning rates, as in the
// core end-to-end tests).
func replanWorkload() ([]opt.WorkItem, error) {
	hub := models.NewBERTHub(models.BERTMini())
	strats := []models.FeatureStrategy{models.FeatLastHidden, models.FeatConcatLast4}
	var items []opt.WorkItem
	i := 0
	for _, strat := range strats {
		for _, lr := range []float64{5e-3, 2e-3} {
			m, err := hub.FeatureTransferModel(fmt.Sprintf("rp%d", i), strat, 9, int64(300+i))
			if err != nil {
				return nil, err
			}
			prof, err := profile.Profile(m, MiniHardware())
			if err != nil {
				return nil, err
			}
			items = append(items, opt.WorkItem{Model: m, Prof: prof, Epochs: 1, BatchSize: 8, LR: lr})
			i++
		}
	}
	return items, nil
}

// replanSnapshot labels two cycles of synthetic NER data.
func replanSnapshot() data.Snapshot {
	pool := data.SynthNER(data.NERConfig{Records: 400, Seq: 12, Vocab: 1024, Types: 4, Seed: 31})
	lab := data.NewLabeler(pool, 40, 32)
	var snap data.Snapshot
	for i := 0; i < 2; i++ {
		snap, _, _ = lab.NextCycle()
	}
	return snap
}

// newReplanMS builds a Nautilus model-selection object over the given
// items with its own tracer (the registry's store.append.bytes counter is
// the experiment's measurement).
func newReplanMS(dir string, items []opt.WorkItem) (*core.ModelSelection, *obs.Tracer, error) {
	ms := make([]*graph.Model, len(items))
	for i, it := range items {
		ms[i] = it.Model
	}
	multi, err := mmg.Build(ms...)
	if err != nil {
		return nil, nil, err
	}
	tracer := obs.New(nil)
	cfg := core.DefaultConfig(dir)
	cfg.Approach = core.Nautilus
	cfg.HW = MiniHardware()
	cfg.Seed = 5
	cfg.MaxRecords = 200
	cfg.Obs = tracer
	sel, err := core.New(items, multi, cfg)
	if err != nil {
		return nil, nil, err
	}
	return sel, tracer, nil
}

// appendBytes reads the cumulative materialization write counter.
func appendBytes(tr *obs.Tracer) int64 {
	return tr.Registry().Counter("store.append.bytes").Value()
}

// Replan runs the replan micro-benchmark: train a base workload, evolve it
// with AddCandidates, and compare the evolution Fit's materialization bytes
// against a cold run of the same final workload. The incremental path must
// write strictly less — it only materializes the plan delta.
func Replan() (*ReplanResult, error) {
	items, err := replanWorkload()
	if err != nil {
		return nil, err
	}
	base, added := items[:len(items)-1], items[len(items)-1]
	snap := replanSnapshot()

	root, err := os.MkdirTemp("", "nautilus-replan-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	res := &ReplanResult{BaseModels: len(base), FinalModels: len(items)}

	// Incremental: plan + train the base workload, then evolve.
	incMS, incTr, err := newReplanMS(workDirOr(root, "incremental"), base)
	if err != nil {
		return nil, err
	}
	defer incMS.Close()
	if _, err := incMS.Fit(snap); err != nil {
		return nil, err
	}
	res.BaselineBytes = appendBytes(incTr)
	if err := incMS.AddCandidates(added); err != nil {
		return nil, err
	}
	if _, err := incMS.Fit(snap); err != nil {
		return nil, err
	}
	res.IncrementalBytes = appendBytes(incTr) - res.BaselineBytes
	if d := incMS.LastDelta(); d != nil {
		res.KeptSigs = len(d.Kept)
		res.NewSigs = len(d.New)
		res.OrphanedSigs = len(d.Orphaned)
		res.GroupsTotal = d.GroupsTotal
	}

	// Full: the same final workload planned and materialized from scratch.
	fullMS, fullTr, err := newReplanMS(workDirOr(root, "full"), items)
	if err != nil {
		return nil, err
	}
	defer fullMS.Close()
	if _, err := fullMS.Fit(snap); err != nil {
		return nil, err
	}
	res.FullBytes = appendBytes(fullTr)

	if res.FullBytes > 0 {
		res.SavingsPct = 100 * (1 - float64(res.IncrementalBytes)/float64(res.FullBytes))
	}
	return res, nil
}

// PrintReplan renders the comparison.
func PrintReplan(w io.Writer, r *ReplanResult) error {
	p := &printer{w: w}
	p.printf("Replan after AddCandidates: incremental vs full materialization\n")
	p.printf("workload: %d models → %d models\n", r.BaseModels, r.FinalModels)
	p.printf("%-22s %14s\n", "phase", "bytes written")
	p.printf("%-22s %14d\n", "baseline (base plan)", r.BaselineBytes)
	p.printf("%-22s %14d\n", "incremental replan", r.IncrementalBytes)
	p.printf("%-22s %14d\n", "full replan", r.FullBytes)
	p.printf("savings: %.1f%%\n", r.SavingsPct)
	p.printf("plan delta: %d kept, %d new, %d orphaned signatures\n", r.KeptSigs, r.NewSigs, r.OrphanedSigs)
	p.printf("training plan: %d groups verified\n", r.GroupsTotal)
	return p.err
}
