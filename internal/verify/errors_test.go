package verify_test

import (
	"errors"
	"fmt"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
)

// asPlanError asserts the error carries a *verify.PlanError (possibly
// wrapped) of the wanted kind and returns it.
func asPlanError(t *testing.T, err error, kind verify.Kind) *verify.PlanError {
	t.Helper()
	var pe *verify.PlanError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *verify.PlanError", err)
	}
	if pe.Kind != kind {
		t.Fatalf("PlanError.Kind = %q, want %q (err: %v)", pe.Kind, kind, err)
	}
	return pe
}

// TestPlanErrorKinds checks every failure class surfaces a typed PlanError
// with the right kind and location fields — including through fmt.Errorf
// %w wrapping, the path core takes.
func TestPlanErrorKinds(t *testing.T) {
	t.Run("model cycle", func(t *testing.T) {
		m, _ := chainModel(t, "cyc", 1)
		m.Node("f1").Parents[0] = m.Node("head")
		pe := asPlanError(t, verify.Model(m), verify.KindModel)
		if pe.Model != "cyc" || pe.Node == "" {
			t.Errorf("location fields not set: %+v", pe)
		}
	})
	t.Run("illegal load", func(t *testing.T) {
		m, prof := chainModel(t, "load", 2)
		plan := opt.CurrentPracticePlan(prof)
		f1 := m.Node("f1")
		plan.CostPerRecord += prof.Layer(f1).LoadFLOPs - prof.Layer(f1).CompFLOPs
		plan.Actions[f1.Index()] = opt.Loaded
		err := fmt.Errorf("core: training plan rejected: %w", verify.Plan(plan, map[graph.Signature]bool{}))
		pe := asPlanError(t, err, verify.KindLegality)
		if pe.Node != "f1" {
			t.Errorf("PlanError.Node = %q, want %q", pe.Node, "f1")
		}
	})
	t.Run("cost mismatch", func(t *testing.T) {
		_, prof := chainModel(t, "cost", 3)
		plan := opt.CurrentPracticePlan(prof)
		plan.CostPerRecord++
		asPlanError(t, verify.Plan(plan, nil), verify.KindCost)
	})
	t.Run("mixed batch fusion", func(t *testing.T) {
		m1, p1 := chainModel(t, "fa", 4)
		m2, p2 := chainModel(t, "fb", 5)
		g := buildGroup(t, []opt.WorkItem{
			{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16},
			{Model: m2, Prof: p2, Epochs: 2, BatchSize: 32},
		})
		pe := asPlanError(t, verify.Group(g, 0, nil), verify.KindFusion)
		if pe.Group == "" {
			t.Errorf("PlanError.Group not set: %+v", pe)
		}
	})
	t.Run("memory budget", func(t *testing.T) {
		m1, p1 := chainModel(t, "ba", 6)
		m2, p2 := chainModel(t, "bb", 7)
		g := buildGroup(t, []opt.WorkItem{
			{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16},
			{Model: m2, Prof: p2, Epochs: 2, BatchSize: 16},
		})
		g.PeakMemBytes = 1 << 40
		asPlanError(t, verify.Group(g, 1<<30, nil), verify.KindBudget)
	})
	t.Run("partition", func(t *testing.T) {
		m1, p1 := chainModel(t, "pa", 8)
		m2, p2 := chainModel(t, "pb", 9)
		i1 := opt.WorkItem{Model: m1, Prof: p1, Epochs: 2, BatchSize: 16}
		i2 := opt.WorkItem{Model: m2, Prof: p2, Epochs: 2, BatchSize: 16}
		g1 := buildGroup(t, []opt.WorkItem{i1})
		asPlanError(t, verify.Groups([]*opt.FusedGroup{g1}, []opt.WorkItem{i1, i2}, 0, nil), verify.KindPartition)
	})
	t.Run("disk budget", func(t *testing.T) {
		m, prof := chainModel(t, "disk", 10)
		f1 := m.Node("f1")
		const records = 100
		plan := opt.CurrentPracticePlan(prof)
		item := opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 16}
		res := &opt.MatResult{
			Materialized: []opt.MatCandidate{{
				Node: f1, Sig: prof.Sig(f1), BytesPerRec: prof.Layer(f1).OutBytes, SharedBy: 1,
			}},
			Sigs:           map[graph.Signature]bool{prof.Sig(f1): true},
			Plans:          map[*graph.Model]*opt.Plan{m: plan},
			TotalCostFLOPs: plan.CostPerRecord * records * 2,
			StorageBytes:   prof.Layer(f1).OutBytes * records,
		}
		cfg := opt.MatConfig{MaxRecords: records, DiskBudgetBytes: res.StorageBytes - 1}
		asPlanError(t, verify.MatResult(res, []opt.WorkItem{item}, cfg), verify.KindBudget)
	})
}

// Fields is the context line the CLIs print under a rejected plan: kind
// first, then group, model and node, each only when set.
func TestPlanErrorFields(t *testing.T) {
	for _, tc := range []struct {
		pe   verify.PlanError
		want string
	}{
		{verify.PlanError{Kind: verify.KindCost}, "kind=cost"},
		{verify.PlanError{Kind: verify.KindModel, Node: "f1"}, "kind=model node=f1"},
		{verify.PlanError{Kind: verify.KindLegality, Group: "g", Model: "m", Node: "n"}, "kind=legality group=g model=m node=n"},
	} {
		if got := tc.pe.Fields(); got != tc.want {
			t.Errorf("Fields() = %q, want %q", got, tc.want)
		}
	}
}

// loadingGroup builds a singleton group whose plan loads f1 from V, so the
// group's legality depends on loadable membership.
func loadingGroup(t *testing.T, name string, seed int64) (*opt.FusedGroup, []opt.WorkItem, graph.Signature) {
	t.Helper()
	m, prof := chainModel(t, name, seed)
	mm, err := mmg.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	mprof, err := profile.Profile(mm.Graph, prof.HW)
	if err != nil {
		t.Fatal(err)
	}
	f1 := mm.NodeOf(m, m.Node("f1"))
	if f1 == nil {
		t.Fatal("merged graph lost node f1")
	}
	plan := opt.CurrentPracticePlan(mprof)
	plan.CostPerRecord += mprof.Layer(f1).LoadFLOPs - mprof.Layer(f1).CompFLOPs
	plan.Actions[f1.Index()] = opt.Loaded
	items := []opt.WorkItem{{Model: m, Prof: prof, Epochs: 2, BatchSize: 16}}
	return &opt.FusedGroup{Items: items, MM: mm, Plan: plan, PeakMemBytes: 1}, items, mprof.Sig(f1)
}

// TestGroupsChecksEveryGroupEveryTime: verification keeps no memory of
// earlier passes, so a group that verified under one V is rejected as soon
// as V stops covering its loads.
func TestGroupsChecksEveryGroupEveryTime(t *testing.T) {
	g, items, sig := loadingGroup(t, "inc", 500)
	groups := []*opt.FusedGroup{g}
	if err := verify.Groups(groups, items, 0, map[graph.Signature]bool{sig: true}); err != nil {
		t.Fatal(err)
	}
	asPlanError(t, verify.Groups(groups, items, 0, map[graph.Signature]bool{}), verify.KindLegality)
}
