package core

import (
	"fmt"
	"sort"
	"time"

	"nautilus/internal/exec"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
)

// ConfigError reports an invalid Config field at construction time, before
// the bad value can fail obscurely deep inside a solver.
type ConfigError struct {
	// Field is the Config field name.
	Field string
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s %s", e.Field, e.Reason)
}

// validateConfig rejects Config values the planner cannot run with. The
// Approach field is deliberately not checked here: baselines and tests
// construct objects with approaches resolved at plan time, and an unknown
// approach fails the first Replan instead.
func validateConfig(cfg Config) error {
	if cfg.DiskBudgetBytes <= 0 {
		return &ConfigError{Field: "DiskBudgetBytes", Reason: fmt.Sprintf("must be positive (B_disk), got %d", cfg.DiskBudgetBytes)}
	}
	if cfg.MemBudgetBytes <= 0 {
		return &ConfigError{Field: "MemBudgetBytes", Reason: fmt.Sprintf("must be positive (B_mem), got %d", cfg.MemBudgetBytes)}
	}
	if cfg.MaxRecords <= 0 {
		return &ConfigError{Field: "MaxRecords", Reason: fmt.Sprintf("must be positive (initial r), got %d", cfg.MaxRecords)}
	}
	return validateSelection(cfg)
}

// validateSelection rejects a value other than its default in the three
// retired selection fields (see their doc comments). PlanWorkload, which
// skips the budget checks, runs it too, so no path ignores one silently.
func validateSelection(cfg Config) error {
	if cfg.Solver != "" && cfg.Solver != "bnb" {
		return &ConfigError{Field: "Solver", Reason: fmt.Sprintf("unknown solver %q (want \"bnb\", MAT OPT's one solver)", cfg.Solver)}
	}
	if cfg.Fuser != "" && cfg.Fuser != opt.FuserGreedy {
		return &ConfigError{Field: "Fuser", Reason: fmt.Sprintf("unknown fuser %q (want %q, FUSE OPT's one fuser)", cfg.Fuser, opt.FuserGreedy)}
	}
	if cfg.FuseStateBudget != 0 {
		return &ConfigError{Field: "FuseStateBudget", Reason: fmt.Sprintf("must be 0 (Algorithm 1 takes no state budget), got %d", cfg.FuseStateBudget)}
	}
	return nil
}

// CandidateError reports a candidate set the planner cannot hold: two
// candidates under one model name (RemoveCandidate, FUSE OPT's group order
// and checkpoints all key by name), or a work item whose profile is
// missing or describes another model (every group's facts are derived from
// its members' profiles).
type CandidateError struct {
	// Model is the offending candidate's model name.
	Model string
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *CandidateError) Error() string {
	return fmt.Sprintf("core: invalid candidate %q: %s", e.Model, e.Reason)
}

// validateCandidates rejects a candidate set with a typed *CandidateError.
func validateCandidates(items []opt.WorkItem) error {
	seen := make(map[string]bool, len(items))
	for i, it := range items {
		if it.Model == nil {
			return &CandidateError{Reason: fmt.Sprintf("work item %d has no model", i)}
		}
		name := it.Model.Name
		if seen[name] {
			return &CandidateError{Model: name, Reason: "duplicate model name"}
		}
		seen[name] = true
		if it.Prof == nil {
			return &CandidateError{Model: name, Reason: "missing profile (profile.Profile the model first)"}
		}
		if it.Prof.Model != it.Model {
			return &CandidateError{Model: name, Reason: "profile describes another model"}
		}
	}
	return nil
}

// PlanDelta describes how one replan changed the materialized set V
// relative to the previous plan: which signatures survive (their on-disk
// artifacts are reused as-is), which are new (materialized from row zero),
// and which are orphaned (garbage-collected). Signature slices are sorted.
type PlanDelta struct {
	Kept     []graph.Signature
	New      []graph.Signature
	Orphaned []graph.Signature
	// GroupsChecked is how many of the new plan's groups were statically
	// verified: all of them.
	GroupsChecked int
	// DeletedKeys and FreedBytes report the artifact GC that applied this
	// delta (zero until the delta is applied to a store).
	DeletedKeys []string
	FreedBytes  int64
}

// Planner is the planning session behind a model-selection workload: it
// owns the candidate set, the expected-maximum record count r, and the
// current WorkloadPlan, and reacts to evolution events — GrowData,
// AddCandidates, RemoveCandidate — by marking the plan dirty. The next
// Replan re-solves MAT OPT and FUSE OPT from scratch over the current
// candidates (each candidate is profiled once, when it joins, and every
// group's facts derive from those profiles); what is incremental is V's
// artifacts: the returned delta says which materialized signatures are
// kept as they are, which are new and which are orphaned.
//
// A Planner is not safe for concurrent use; ModelSelection drives one per
// workload.
type Planner struct {
	cfg   Config
	items []opt.WorkItem
	mm    *mmg.MultiModel

	r     int
	wp    *WorkloadPlan
	dirty bool
}

// NewPlanner creates a planning session for the candidate set, validating
// the configuration (typed *ConfigError on rejection) and the candidates
// (typed *CandidateError: duplicate model name, missing or foreign
// profile).
func NewPlanner(items []opt.WorkItem, mm *mmg.MultiModel, cfg Config) (*Planner, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("core: empty candidate set")
	}
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if err := validateCandidates(items); err != nil {
		return nil, err
	}
	return newPlanner(items, mm, cfg), nil
}

// newPlanner skips config validation — the PlanWorkload compatibility path,
// where experiments legitimately sweep degenerate budgets (e.g. B_disk 0
// meaning unlimited in Figure 10's sweep).
func newPlanner(items []opt.WorkItem, mm *mmg.MultiModel, cfg Config) *Planner {
	return &Planner{cfg: cfg, items: items, mm: mm}
}

// Items returns the current candidate set.
func (p *Planner) Items() []opt.WorkItem { return p.items }

// MultiModel returns the current merged multi-model graph.
func (p *Planner) MultiModel() *mmg.MultiModel { return p.mm }

// MaxRecords returns the current expected-maximum record count r.
func (p *Planner) MaxRecords() int { return p.r }

// Plan returns the current workload plan (nil before the first Replan).
func (p *Planner) Plan() *WorkloadPlan { return p.wp }

// NeedsReplan reports whether an evolution event invalidated the current
// plan (or no plan exists yet).
func (p *Planner) NeedsReplan() bool { return p.wp == nil || p.dirty }

// GrowData reacts to dataset growth (Section 4.2.3): when trainSize exceeds
// the planned-for r, r doubles (exponential backoff) until it covers the
// data and the plan is marked dirty. Returns whether r grew.
func (p *Planner) GrowData(trainSize int) bool {
	if p.r == 0 {
		p.r = p.cfg.MaxRecords
	}
	grew := false
	for p.r < trainSize {
		p.r *= 2
		grew = true
	}
	if grew {
		p.dirty = true
	}
	return grew
}

// AddCandidates grows the workload with new candidates mid-run (the
// "evolving model selection workloads" extension of Section 7). Every new
// candidate's model is statically verified first; a malformed model rejects
// the whole evolution with a typed *verify.PlanError (errors.As), a name
// already in the workload or a missing or foreign profile with a typed
// *CandidateError, and either leaves the session unchanged.
func (p *Planner) AddCandidates(items ...opt.WorkItem) error {
	if len(items) == 0 {
		return nil
	}
	for _, it := range items {
		if err := verify.Model(it.Model); err != nil {
			return fmt.Errorf("core: candidate rejected: %w", err)
		}
	}
	next := append(append([]opt.WorkItem(nil), p.items...), items...)
	if err := validateCandidates(next); err != nil {
		return err
	}
	return p.setItems(next)
}

// RemoveCandidate drops a candidate by model name.
func (p *Planner) RemoveCandidate(name string) error {
	var next []opt.WorkItem
	found := false
	for _, it := range p.items {
		if it.Model.Name == name {
			found = true
			continue
		}
		next = append(next, it)
	}
	if !found {
		return fmt.Errorf("core: no candidate named %q", name)
	}
	if len(next) == 0 {
		return fmt.Errorf("core: removing %q would empty the workload", name)
	}
	return p.setItems(next)
}

// setItems swaps the (validated) candidate set, rebuilds the merged graph
// eagerly from the candidates' profiles (so graph-level conflicts surface at
// the evolution event, not the next Fit), and marks the plan dirty.
func (p *Planner) setItems(items []opt.WorkItem) error {
	profs := make([]*profile.ModelProfile, len(items))
	for i, it := range items {
		profs[i] = it.Prof
	}
	multi, _, err := mmg.BuildProfiled(profs...)
	if err != nil {
		return err
	}
	p.items = items
	p.mm = multi
	p.dirty = true
	return nil
}

// Replan computes a fresh WorkloadPlan through the staged pipeline —
// materialization solve, then grouping and verification (planGroups) — and
// returns it with the delta against the previous plan.
// What each stage does is the approach's row in approachSpecs. On success
// the plan becomes current and the dirty flag clears; on error the previous
// plan stays in place.
func (p *Planner) Replan() (*WorkloadPlan, *PlanDelta, error) {
	spec, ok := p.cfg.Approach.spec()
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown approach %q", p.cfg.Approach)
	}
	start := time.Now()
	span := p.cfg.Obs.Start("plan/workload",
		obs.Str("approach", string(p.cfg.Approach)),
		obs.Int("models", int64(len(p.items))),
		obs.Int("max_records", int64(p.r)))
	defer span.End()

	wp := &WorkloadPlan{MatSigs: map[graph.Signature]bool{}}
	if err := p.stageMatSigs(span, spec, wp); err != nil {
		return nil, nil, err
	}
	groups, fuseStats, err := p.planGroups(span, spec, wp.MatSigs)
	if err != nil {
		return nil, nil, err
	}
	wp.Groups = groups
	wp.Stats.Fuse = fuseStats
	wp.Stats.OptimizeTime = time.Since(start)
	wp.Stats.Groups = len(wp.Groups)

	delta := diffPlans(p.wp, wp)
	delta.GroupsChecked = len(wp.Groups)
	span.Attr(obs.Int("kept", int64(len(delta.Kept))),
		obs.Int("new", int64(len(delta.New))),
		obs.Int("orphaned", int64(len(delta.Orphaned))))
	p.wp = wp
	p.dirty = false
	return wp, delta, nil
}

// stageMatSigs runs the materialization stage: pick the set V by the
// approach's policy — for MAT OPT, solve (Section 4.2) and statically
// verify the solver's output.
func (p *Planner) stageMatSigs(span *obs.Span, spec approachSpec, wp *WorkloadPlan) error {
	switch spec.mat {
	case matNone:
		return nil
	case matAll:
		for _, n := range p.mm.MaterializableNodes() {
			wp.MatSigs[p.mm.Sig(n)] = true
		}
		return nil
	}
	matCfg := opt.MatConfig{
		DiskBudgetBytes: p.cfg.DiskBudgetBytes,
		MaxRecords:      p.r,
	}
	ms := span.Child("plan/mat_opt")
	matRes, err := opt.OptimizeMaterialization(p.mm, p.items, matCfg)
	if err != nil {
		ms.End()
		return err
	}
	ms.Attr(obs.Int("nodes_explored", int64(matRes.NodesExplored)),
		obs.Int("materialized", int64(len(matRes.Materialized))),
		obs.Int("storage_bytes", matRes.StorageBytes))
	ms.End()
	vs := span.Child("plan/mat_verify")
	err = verify.MatResult(matRes, p.items, matCfg)
	vs.End()
	if err != nil {
		return fmt.Errorf("core: materialization plan rejected: %w", err)
	}
	wp.MatSigs = matRes.Sigs
	wp.Stats.Materialized = len(matRes.Materialized)
	wp.Stats.StorageBytes = matRes.StorageBytes
	wp.Stats.MatSolveNodes = matRes.NodesExplored
	return nil
}

// planGroups runs the grouping and verification stages for the candidates
// against materialized set sigs: every candidate becomes a group of its own
// under the approach's plan policy, or FUSE OPT partitions them under
// B_mem, and the resulting training plan is statically verified, every
// group every time. It returns the groups and the fuser's counters (zero
// when nothing fuses).
func (p *Planner) planGroups(span *obs.Span, spec approachSpec, sigs map[graph.Signature]bool) (groups []*opt.FusedGroup, fuseStats opt.FuseStats, err error) {
	items := p.items
	var memBudget int64 // only fused groups are planned against B_mem
	if !spec.fuse {
		groups, err = opt.SingletonGroups(items, sigs, spec.plan, opt.AdamSlotBytes)
	} else {
		var fuser opt.Fuser
		memBudget = p.cfg.MemBudgetBytes
		fs := span.Child("plan/fuse_opt")
		groups, err = fuser.Fuse(items, sigs, opt.FuseConfig{
			MemBudgetBytes:     memBudget,
			OptimizerSlotBytes: opt.AdamSlotBytes,
			Stats:              &fuseStats,
		})
		fs.Attr(obs.Int("rounds", int64(fuseStats.Rounds)),
			obs.Int("pairs_evaluated", int64(fuseStats.PairsEvaluated)),
			obs.Int("pairs_rejected", int64(fuseStats.PairsRejected)))
		fs.End()
	}
	if err != nil {
		return nil, fuseStats, err
	}

	gs := span.Child("plan/verify", obs.Int("groups", int64(len(groups))))
	err = verify.Groups(groups, items, memBudget, sigs)
	gs.End()
	if err != nil {
		return nil, fuseStats, fmt.Errorf("core: training plan rejected: %w", err)
	}
	return groups, fuseStats, nil
}

// diffPlans computes the V-delta from old to new (old may be nil: first
// plan, everything is new).
func diffPlans(old, new_ *WorkloadPlan) *PlanDelta {
	d := &PlanDelta{}
	var oldSigs map[graph.Signature]bool
	if old != nil {
		oldSigs = old.MatSigs
	}
	for sig := range oldSigs {
		if new_.MatSigs[sig] {
			d.Kept = append(d.Kept, sig)
		} else {
			d.Orphaned = append(d.Orphaned, sig)
		}
	}
	for sig := range new_.MatSigs {
		if !oldSigs[sig] {
			d.New = append(d.New, sig)
		}
	}
	sortSigs(d.Kept)
	sortSigs(d.New)
	sortSigs(d.Orphaned)
	return d
}

func sortSigs(s []graph.Signature) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// OldSigs reconstructs the previous plan's materialized set from the delta.
func (d *PlanDelta) OldSigs() map[graph.Signature]bool {
	out := make(map[graph.Signature]bool, len(d.Kept)+len(d.Orphaned))
	for _, s := range d.Kept {
		out[s] = true
	}
	for _, s := range d.Orphaned {
		out[s] = true
	}
	return out
}

// applyPlan reconciles on-disk artifacts with a freshly replanned V and
// rebuilds the materializer: artifacts for kept signatures stay (records
// intact), orphaned ones are garbage-collected, new ones start empty. The
// GC outcome is recorded on the delta and in the plan/delta span.
func (ms *ModelSelection) applyPlan(wp *WorkloadPlan, delta *PlanDelta) error {
	sp := ms.cfg.Obs.Start("plan/delta",
		obs.Int("kept", int64(len(delta.Kept))),
		obs.Int("new", int64(len(delta.New))),
		obs.Int("orphaned", int64(len(delta.Orphaned))),
		obs.Int("groups_total", int64(len(wp.Groups))))
	defer sp.End()
	st, err := exec.ReconcileArtifacts(ms.store, delta.OldSigs(), wp.MatSigs)
	if err != nil {
		return err
	}
	delta.DeletedKeys = st.DeletedKeys
	delta.FreedBytes = st.FreedBytes
	sp.Attr(obs.Int("deleted_keys", int64(len(st.DeletedKeys))),
		obs.Int("freed_bytes", st.FreedBytes))

	ms.materializer = nil
	if len(wp.MatSigs) > 0 {
		mz, err := exec.NewMaterializer(ms.store, ms.planner.mm, wp.MatSigs)
		if err != nil {
			return err
		}
		if mz != nil {
			mz.Obs = ms.cfg.Obs
			mz.Prefetch = ms.cfg.Prefetch
			mz.Arena = ms.arena
		}
		ms.materializer = mz
	}
	ms.lastDelta = delta
	return nil
}
