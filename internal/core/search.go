package core

import (
	"fmt"
	"sort"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
)

// SearchSpace maps parameter names to their candidate values, as in the
// paper's Scikit-Learn-inspired API (Section 3): both architectural tuning
// parameters (which layers to add, prune, or freeze) and training
// hyperparameters live in one space, interpreted by the user's model
// initialization function.
type SearchSpace map[string][]any

// Hyper carries the training hyperparameters ϕ_i of one candidate.
type Hyper struct {
	Epochs    int
	BatchSize int
	LR        float64
}

// ModelInitFunc is the user-defined model initialization function: it
// receives one assignment of search-space values and returns the candidate
// model (with its freezing scheme applied) plus its training
// hyperparameters.
type ModelInitFunc func(params map[string]any) (*graph.Model, Hyper, error)

// GridSearch enumerates the full cross product of the search space,
// initializes every candidate in order (init functions may share state),
// profiles them through the one candidate-set builder, and returns the
// workload ready for New.
func GridSearch(space SearchSpace, init ModelInitFunc, hw profile.Hardware) ([]opt.WorkItem, *mmg.MultiModel, error) {
	assignments := enumerate(space)
	if len(assignments) == 0 {
		return nil, nil, fmt.Errorf("core: empty search space")
	}
	items := make([]opt.WorkItem, len(assignments))
	for i, a := range assignments {
		m, hyper, err := init(a)
		if err != nil {
			return nil, nil, fmt.Errorf("core: init candidate %d (%v): %w", i, a, err)
		}
		items[i] = opt.WorkItem{Model: m, Epochs: hyper.Epochs, BatchSize: hyper.BatchSize, LR: hyper.LR}
	}
	multi, err := opt.ProfileWorkload(items, hw)
	if err != nil {
		return nil, nil, err
	}
	return items, multi, nil
}

// enumerate expands the cross product in deterministic (sorted-key) order.
func enumerate(space SearchSpace) []map[string]any {
	keys := make([]string, 0, len(space))
	for k := range space {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	assignments := []map[string]any{{}}
	for _, k := range keys {
		var next []map[string]any
		for _, a := range assignments {
			for _, v := range space[k] {
				na := make(map[string]any, len(a)+1)
				for kk, vv := range a {
					na[kk] = vv
				}
				na[k] = v
				next = append(next, na)
			}
		}
		assignments = next
	}
	return assignments
}

// AddCandidates grows the workload with new candidates mid-run (the
// "evolving model selection workloads" extension of Section 7): the
// multi-model graph is rebuilt, the next Fit replans (MAT OPT and FUSE OPT
// are re-solved; V's artifacts are what is incremental), and materialized
// artifacts the new plan still uses survive on disk. A malformed candidate
// model rejects the evolution with a typed *verify.PlanError, a taken model
// name or a missing or foreign profile with a typed *CandidateError
// (errors.As).
func (ms *ModelSelection) AddCandidates(items ...opt.WorkItem) error {
	return ms.planner.AddCandidates(items...)
}

// RemoveCandidate drops a candidate by model name; the next Fit replans
// the remaining workload and garbage-collects artifacts only it used.
func (ms *ModelSelection) RemoveCandidate(name string) error {
	return ms.planner.RemoveCandidate(name)
}
