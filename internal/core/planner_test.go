package core

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/obs"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
)

// msOver builds a Nautilus model-selection object over an explicit item
// subset (the evolution tests grow and shrink the workload around it).
func msOver(t *testing.T, items []opt.WorkItem, tr *obs.Tracer) *ModelSelection {
	t.Helper()
	models := make([]*graph.Model, len(items))
	for i, it := range items {
		models[i] = it.Model
	}
	mm, err := mmg.Build(models...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(t.TempDir())
	cfg.HW = miniHW
	cfg.MaxRecords = 600
	cfg.Obs = tr
	sel, err := New(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sel.Close() })
	return sel
}

// storeCounts snapshots every artifact key's record count.
func storeCounts(t *testing.T, ms *ModelSelection) map[string]int {
	t.Helper()
	keys, err := ms.store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, k := range keys {
		n, err := ms.store.Count(k)
		if err != nil {
			t.Fatal(err)
		}
		counts[k] = n
	}
	return counts
}

func TestConfigValidationRejectsBadBudgets(t *testing.T) {
	items, mm := tinyWorkload(t)
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"zero disk budget", func(c *Config) { c.DiskBudgetBytes = 0 }, "DiskBudgetBytes"},
		{"negative mem budget", func(c *Config) { c.MemBudgetBytes = -1 }, "MemBudgetBytes"},
		{"zero max records", func(c *Config) { c.MaxRecords = 0 }, "MaxRecords"},
		{"unknown solver", func(c *Config) { c.Solver = "simplex" }, "Solver"},
		{"unknown fuser", func(c *Config) { c.Fuser = "annealing" }, "Fuser"},
		{"negative fuse budget", func(c *Config) { c.FuseStateBudget = -5 }, "FuseStateBudget"},
		// The retired MILP solver, partition-search fuser and its state
		// budget are test oracles in internal/opt now.
		{"milp solver", func(c *Config) { c.Solver = "milp" }, "Solver"},
		{"enum fuser", func(c *Config) { c.Fuser = "enum" }, "Fuser"},
		{"fuse budget", func(c *Config) { c.FuseStateBudget = 7 }, "FuseStateBudget"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(t.TempDir())
			cfg.HW = miniHW
			tc.mut(&cfg)
			_, err := New(items, mm, cfg)
			_, perr := NewPlanner(items, mm, cfg)
			errs := []error{err, perr}
			if tc.field == "Solver" || tc.field == "Fuser" || tc.field == "FuseStateBudget" {
				// PlanWorkload skips the budget checks, not these.
				_, werr := PlanWorkload(items, mm, cfg, 600)
				errs = append(errs, werr)
			}
			for _, err := range errs {
				var ce *ConfigError
				if !errors.As(err, &ce) {
					t.Fatalf("New/NewPlanner/PlanWorkload = %v, want *ConfigError", err)
				}
				if ce.Field != tc.field {
					t.Errorf("ConfigError.Field = %q, want %q", ce.Field, tc.field)
				}
			}
		})
	}
	// Each field's accepted values pass validation.
	for _, mut := range []func(*Config){
		func(c *Config) { c.Solver = "" },
		func(c *Config) { c.Solver = "bnb" },
		func(c *Config) { c.Fuser = "" },
		func(c *Config) { c.Fuser = opt.FuserGreedy },
	} {
		cfg := DefaultConfig(t.TempDir())
		cfg.HW = miniHW
		mut(&cfg)
		ms, err := New(items, mm, cfg)
		if err != nil {
			t.Fatalf("solver %q fuser %q rejected: %v", cfg.Solver, cfg.Fuser, err)
		}
		ms.Close()
	}
}

// TestBudgetFlagsRejectOutOfRange: -disk-gb and -mem-gb take a GB count
// from 0 up to, not including, 2^33 (2^63 bytes). NaN, infinities, negative
// counts and counts whose byte count overflows int64 are parse errors, so
// flag prints usage and the command exits 2, and the budget keeps its value.
func TestBudgetFlagsRejectOutOfRange(t *testing.T) {
	cases := []struct {
		arg  string
		want int64 // bytes; -1 marks a rejected value
	}{
		{"0", 0},
		{"0.5", 1 << 29},
		{"25", 25 << 30},
		{"8589934591", 8589934591 << 30},
		{"8589934592", -1},
		{"1e12", -1},
		{"NaN", -1},
		{"Inf", -1},
		{"-Inf", -1},
		{"-3", -1},
		{"ten", -1},
	}
	for _, name := range []string{"disk-gb", "mem-gb"} {
		for _, tc := range cases {
			cfg := DefaultConfig("")
			budget := &cfg.DiskBudgetBytes
			if name == "mem-gb" {
				budget = &cfg.MemBudgetBytes
			}
			before := *budget
			fs := flag.NewFlagSet("budget", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			cfg.RegisterFlags(fs)
			err := fs.Parse([]string{"-" + name, tc.arg})
			switch {
			case tc.want < 0 && (err == nil || *budget != before):
				t.Errorf("-%s %s: err %v, budget %d; want a parse error and %d kept", name, tc.arg, err, *budget, before)
			case tc.want >= 0 && (err != nil || *budget != tc.want):
				t.Errorf("-%s %s: err %v, budget %d; want %d", name, tc.arg, err, *budget, tc.want)
			}
		}
	}
}

// TestPlannerReplanAfterRemovalChecksEveryGroup: a replan of an evolved
// candidate set verifies every group and trains every remaining candidate.
func TestPlannerReplanAfterRemovalChecksEveryGroup(t *testing.T) {
	items, mm := tinyWorkload(t)
	cfg := DefaultConfig(t.TempDir())
	cfg.HW = miniHW
	p, err := NewPlanner(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.GrowData(600)
	if _, _, err := p.Replan(); err != nil {
		t.Fatal(err)
	}
	if err := p.RemoveCandidate(items[0].Model.Name); err != nil {
		t.Fatal(err)
	}
	wp, delta, err := p.Replan()
	if err != nil {
		t.Fatal(err)
	}
	if delta.GroupsChecked != len(wp.Groups) {
		t.Errorf("checked %d of %d groups", delta.GroupsChecked, len(wp.Groups))
	}
	covered := 0
	for _, g := range wp.Groups {
		covered += len(g.Items)
	}
	if covered != len(items)-1 {
		t.Errorf("replanned groups cover %d items, want %d", covered, len(items)-1)
	}
}

func TestBestResultSelection(t *testing.T) {
	// All-zero accuracies (e.g. a degenerate cycle) must still name a best
	// candidate: the alphabetically first, since results are name-sorted.
	zero := []CandidateResult{{Model: "a"}, {Model: "b"}, {Model: "c"}}
	if best := bestResult(zero); best.Model != "a" {
		t.Errorf("all-zero best = %q, want %q", best.Model, "a")
	}
	// Ties break toward the earlier (alphabetically first) name.
	tied := []CandidateResult{{Model: "a", ValAcc: 0.5}, {Model: "b", ValAcc: 0.5}}
	if best := bestResult(tied); best.Model != "a" {
		t.Errorf("tied best = %q, want %q", best.Model, "a")
	}
	// A strictly higher score wins regardless of order.
	win := []CandidateResult{{Model: "a", ValAcc: 0.2}, {Model: "b", ValAcc: 0.7}}
	if best := bestResult(win); best.Model != "b" {
		t.Errorf("best = %q, want %q", best.Model, "b")
	}
	if best := bestResult(nil); best.Model != "" {
		t.Errorf("empty results best = %+v, want zero value", best)
	}
}

// TestEvolutionCycleReconcilesArtifacts drives a full evolving-workload
// cycle — AddCandidates, Fit, RemoveCandidate, Fit — and checks artifact
// reconciliation on disk: kept artifacts survive with their record counts
// intact (no duplicate appends), orphaned artifacts are deleted.
func TestEvolutionCycleReconcilesArtifacts(t *testing.T) {
	items, _ := tinyWorkload(t) // t0,t1: last-hidden; t2,t3: concat-last-4
	snap := snapshots(t, 1)[0]
	ms := msOver(t, items[:3], nil)

	if _, err := ms.Fit(snap); err != nil {
		t.Fatal(err)
	}
	before := storeCounts(t, ms)
	if len(before) == 0 {
		t.Fatal("expected materialized artifacts at mini hardware ratios")
	}

	// Grow: t3 shares t2's concat-last-4 feature, so the replan keeps V and
	// every artifact must survive untouched.
	if err := ms.AddCandidates(items[3]); err != nil {
		t.Fatal(err)
	}
	res, err := ms.Fit(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("%d results after AddCandidates, want 4", len(res.Results))
	}
	delta := ms.LastDelta()
	if delta == nil {
		t.Fatal("no plan delta recorded for the evolution replan")
	}
	if len(delta.Kept) == 0 {
		t.Errorf("delta kept no signatures: %+v", delta)
	}
	after := storeCounts(t, ms)
	for key, n := range before {
		if got, ok := after[key]; !ok {
			t.Errorf("kept artifact %s deleted by reconciliation", key)
		} else if got != n {
			t.Errorf("artifact %s has %d records after evolution, want %d (duplicate appends?)", key, got, n)
		}
	}

	// Shrink: dropping both concat-last-4 candidates orphans their shared
	// feature — its artifacts must be garbage-collected from disk.
	if err := ms.RemoveCandidate("t2"); err != nil {
		t.Fatal(err)
	}
	if err := ms.RemoveCandidate("t3"); err != nil {
		t.Fatal(err)
	}
	res, err = ms.Fit(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("%d results after removals, want 2", len(res.Results))
	}
	delta = ms.LastDelta()
	if len(delta.Orphaned) == 0 {
		t.Fatalf("removing all concat-last-4 candidates orphaned nothing: %+v", delta)
	}
	if len(delta.DeletedKeys) == 0 || delta.FreedBytes <= 0 {
		t.Fatalf("orphaned signatures freed no artifacts: %+v", delta)
	}
	for _, key := range delta.DeletedKeys {
		if _, err := os.Stat(filepath.Join(ms.store.Dir(), key+".nts")); !os.IsNotExist(err) {
			t.Errorf("orphaned artifact %s still on disk (stat err %v)", key, err)
		}
	}
	final := storeCounts(t, ms)
	for key, n := range final {
		if before[key] != n {
			t.Errorf("surviving artifact %s has %d records, want %d", key, n, before[key])
		}
	}
}

// TestIncrementalReplanWritesLessThanFull checks the point of plan deltas:
// the Fit after AddCandidates materializes only the delta's new signatures,
// writing strictly fewer bytes than planning the same workload cold.
func TestIncrementalReplanWritesLessThanFull(t *testing.T) {
	items, _ := tinyWorkload(t)
	snap := snapshots(t, 1)[0]

	trInc := obs.New(nil)
	inc := msOver(t, items[:2], trInc)
	if _, err := inc.Fit(snap); err != nil {
		t.Fatal(err)
	}
	base := trInc.Registry().Counter("store.append.bytes").Value()
	// t2 introduces the concat-last-4 feature: a genuinely new signature.
	if err := inc.AddCandidates(items[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Fit(snap); err != nil {
		t.Fatal(err)
	}
	incBytes := trInc.Registry().Counter("store.append.bytes").Value() - base

	trFull := obs.New(nil)
	full := msOver(t, items[:3], trFull)
	if _, err := full.Fit(snap); err != nil {
		t.Fatal(err)
	}
	fullBytes := trFull.Registry().Counter("store.append.bytes").Value()

	if fullBytes == 0 {
		t.Fatal("cold run materialized nothing; the comparison is vacuous")
	}
	if incBytes >= fullBytes {
		t.Errorf("incremental replan wrote %d bytes, not below full replan's %d", incBytes, fullBytes)
	}
}

func TestAddCandidatesRejectsMalformedModel(t *testing.T) {
	ms := newMS(t, Nautilus)
	before := candidateNames(ms.Planner())

	bad := graph.NewModel("bad")
	in := bad.AddInput("in", 8)
	d := bad.AddNode("d", layers.NewDense(5, 4, layers.ActNone, 1), in) // wants width 5, gets 8
	bad.SetOutputs(d)

	err := ms.AddCandidates(opt.WorkItem{Model: bad, Epochs: 1, BatchSize: 8})
	var pe *verify.PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("AddCandidates = %v, want *verify.PlanError", err)
	}
	if pe.Kind != verify.KindModel {
		t.Errorf("PlanError.Kind = %q, want %q", pe.Kind, verify.KindModel)
	}
	after := candidateNames(ms.Planner())
	if len(after) != len(before) {
		t.Errorf("rejected evolution changed the candidate set: %v -> %v", before, after)
	}
}

// candidateNames lists the planner's current candidate model names, sorted.
func candidateNames(p *Planner) []string {
	var names []string
	for _, it := range p.Items() {
		names = append(names, it.Model.Name)
	}
	sort.Strings(names)
	return names
}

// freshCandidate builds and profiles one more tiny feature-transfer
// candidate under the given model name.
func freshCandidate(t *testing.T, name string) opt.WorkItem {
	t.Helper()
	m, err := models.NewBERTHub(models.BERTMini()).FeatureTransferModel(name, models.FeatLastHidden, 9, 900)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Profile(m, miniHW)
	if err != nil {
		t.Fatal(err)
	}
	return opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8, LR: 5e-3}
}

// TestPlannerRejectsDuplicateNamesAndBadProfiles: a candidate whose model
// name is taken, or whose profile is missing or describes another model, is
// refused with a typed *CandidateError by AddCandidates (candidate set
// before == after, plan still clean) and by NewPlanner. Before the check a
// first duplicate was accepted — RemoveCandidate then dropped both — and a
// second one panicked inside the merge on a duplicate node name.
func TestPlannerRejectsDuplicateNamesAndBadProfiles(t *testing.T) {
	ms := newMS(t, Nautilus)
	if _, err := ms.Fit(snapshots(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	before := candidateNames(ms.Planner())

	other := freshCandidate(t, "other")
	noProfile := freshCandidate(t, "t9")
	noProfile.Prof = nil
	foreignProfile := freshCandidate(t, "t9")
	foreignProfile.Prof = other.Prof
	cases := []struct {
		name  string
		items []opt.WorkItem
		model string
	}{
		{"duplicate of an existing name", []opt.WorkItem{freshCandidate(t, "t0")}, "t0"},
		{"the same duplicate again", []opt.WorkItem{freshCandidate(t, "t0")}, "t0"},
		{"duplicate within one call", []opt.WorkItem{freshCandidate(t, "t9"), freshCandidate(t, "t9")}, "t9"},
		{"missing profile", []opt.WorkItem{noProfile}, "t9"},
		{"profile of another model", []opt.WorkItem{foreignProfile}, "t9"},
	}
	for _, tc := range cases {
		err := ms.AddCandidates(tc.items...)
		var ce *CandidateError
		if !errors.As(err, &ce) {
			t.Errorf("%s: AddCandidates = %v, want *CandidateError", tc.name, err)
		} else if ce.Model != tc.model {
			t.Errorf("%s: CandidateError.Model = %q, want %q", tc.name, ce.Model, tc.model)
		}
		if after := candidateNames(ms.Planner()); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: rejected evolution changed the candidate set: %v -> %v", tc.name, before, after)
		}
		if ms.Planner().NeedsReplan() {
			t.Errorf("%s: rejected evolution marked the plan dirty", tc.name)
		}

		items, mm := tinyWorkload(t)
		cfg := DefaultConfig(t.TempDir())
		cfg.HW = miniHW
		_, err = NewPlanner(append(items, tc.items...), mm, cfg)
		if !errors.As(err, &ce) {
			t.Errorf("%s: NewPlanner = %v, want *CandidateError", tc.name, err)
		}
		if _, err = PlanWorkload(append(items, tc.items...), mm, cfg, 600); !errors.As(err, &ce) {
			t.Errorf("%s: PlanWorkload = %v, want *CandidateError", tc.name, err)
		}
	}

	// A well-formed newcomer is still welcome afterwards.
	if err := ms.AddCandidates(other); err != nil {
		t.Fatal(err)
	}
	if got := len(candidateNames(ms.Planner())); got != len(before)+1 {
		t.Errorf("%d candidates after a valid AddCandidates, want %d", got, len(before)+1)
	}
}

// TestMatOptRejectsProfilesMissingACandidateNode: MAT OPT reads each
// candidate layer's size from its first source model's profile. A profile
// that predates a node of its model, or that describes another model, has
// no entry for that node — it used to be dereferenced unchecked inside
// OptimizeMaterialization; now it is an error naming model and node, like
// the sibling "model is not a work item" case.
func TestMatOptRejectsProfilesMissingACandidateNode(t *testing.T) {
	cfg := opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100}
	wantErr := func(label string, items []opt.WorkItem, mm *mmg.MultiModel, names ...string) {
		t.Helper()
		_, err := opt.OptimizeMaterialization(mm, items, cfg)
		if err == nil {
			t.Fatalf("%s: OptimizeMaterialization accepted the workload", label)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name %q", label, err, name)
			}
		}
	}

	stale, mm := staleCandidate(t)
	wantErr("stale profile", []opt.WorkItem{stale}, mm, `"stale"`, `"late"`)

	foreign := freshCandidate(t, "foreign")
	foreign.Prof = freshCandidate(t, "other").Prof
	mm, err := mmg.Build(foreign.Model)
	if err != nil {
		t.Fatal(err)
	}
	wantErr("profile of another model", []opt.WorkItem{foreign}, mm, `"foreign"`)
}

// staleCandidate is a candidate with a frozen layer added after profiling:
// a new materializable node, so a candidate of U, that the stale profile
// has no entry for. It comes with its merged graph.
func staleCandidate(t *testing.T) (opt.WorkItem, *mmg.MultiModel) {
	t.Helper()
	stale := freshCandidate(t, "stale")
	late := stale.Model.AddNode("late", layers.NewDense(9, 4, layers.ActNone, 5), stale.Model.Outputs[0])
	stale.Model.Outputs[0].Trainable = false
	stale.Model.SetOutputs(late)
	mm, err := mmg.Build(stale.Model)
	if err != nil {
		t.Fatal(err)
	}
	return stale, mm
}

// TestReplanErrorsEndTheirSpans replans a stale-profiled candidate under a
// live tracer with every approach: MAT OPT fails inside plan/mat_opt, the
// plan policies fail inside planGroups, and each error return must leave no
// span open.
func TestReplanErrorsEndTheirSpans(t *testing.T) {
	for _, approach := range Approaches() {
		stale, mm := staleCandidate(t)
		cfg := DefaultConfig(t.TempDir())
		cfg.HW = miniHW
		cfg.Approach = approach
		cfg.Obs = obs.New(nil)
		p, err := NewPlanner([]opt.WorkItem{stale}, mm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.GrowData(100)
		if _, _, err := p.Replan(); err == nil || !strings.Contains(err.Error(), `"stale"`) {
			t.Fatalf("%s: Replan = %v, want the stale profile's error", approach, err)
		}
		rep := cfg.Obs.Report()
		if len(rep.Spans) == 0 {
			t.Errorf("%s: the tracer recorded no span", approach)
		}
		for _, sp := range rep.OpenSpans {
			t.Errorf("%s: span %s still open after Replan's error return", approach, sp.Name)
		}
	}
}

func TestRemoveCandidateErrors(t *testing.T) {
	ms := newMS(t, Nautilus)
	if err := ms.RemoveCandidate("nope"); err == nil {
		t.Error("removing an unknown candidate should error")
	}
	for _, name := range []string{"t0", "t1", "t2"} {
		if err := ms.RemoveCandidate(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := ms.RemoveCandidate("t3"); err == nil {
		t.Error("emptying the workload should error")
	}
}
