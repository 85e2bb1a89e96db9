package opt_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
)

var enumTestHW = profile.Hardware{
	FLOPSThroughput: 6e12,
	DiskThroughput:  6e10,
	WorkspaceBytes:  1 << 28,
}

// fuseGreedy runs FUSE OPT under Algorithm 1.
func fuseGreedy(items []opt.WorkItem, sigs map[graph.Signature]bool, cfg opt.FuseConfig) ([]*opt.FusedGroup, error) {
	f, err := opt.NewFuser(opt.FuserGreedy, 0)
	if err != nil {
		return nil, err
	}
	return f.Fuse(items, sigs, cfg)
}

// groupKey spells out what makes two groups the same plan entry: members
// in order, cost, peak-memory estimate and action counts.
func groupKey(g *opt.FusedGroup) string {
	names := make([]string, len(g.Items))
	for i, it := range g.Items {
		names[i] = it.Model.Name
	}
	pruned, computed, loaded := g.Plan.CountActions()
	return fmt.Sprintf("%v cost=%d mem=%d actions=%d/%d/%d", names, g.Plan.CostPerRecord, g.PeakMemBytes, pruned, computed, loaded)
}

// TestEnumFuserBeatsGreedyOnTrapFixture pins the reason enumeration exists:
// on the trap workload, greedy's best-pair-first choice is provably
// suboptimal and enumeration finds the cheaper partition — while both
// plans stay legal under the verifier.
func TestEnumFuserBeatsGreedyOnTrapFixture(t *testing.T) {
	items, budget, err := opt.GreedyTrapWorkload()
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(stats *opt.FuseStats) opt.FuseConfig {
		return opt.FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2, Stats: stats}
	}

	greedyStats := &opt.FuseStats{}
	greedy, err := fuseGreedy(items, nil, cfg(greedyStats))
	if err != nil {
		t.Fatal(err)
	}
	enumStats := &opt.FuseStats{}
	fuser, err := opt.NewFuser(opt.FuserEnum, 0)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := fuser.Fuse(items, nil, cfg(enumStats))
	if err != nil {
		t.Fatal(err)
	}

	gCost, eCost := opt.TotalPlanCost(greedy), opt.TotalPlanCost(enum)
	if eCost >= gCost {
		t.Errorf("enum cost %d not strictly below greedy %d on the trap fixture", eCost, gCost)
	}
	// The designed optimum is {A,C} + {B,D}: two pairs, no singletons.
	if len(enum) != 2 {
		t.Errorf("enum produced %d groups, want the 2-pair optimum", len(enum))
	}
	for _, g := range enum {
		if len(g.Items) != 2 {
			t.Errorf("enum group %q has %d members, want 2", g.Name(), len(g.Items))
		}
		if g.PeakMemBytes > budget {
			t.Errorf("enum group %q exceeds B_mem: %d > %d", g.Name(), g.PeakMemBytes, budget)
		}
	}
	if err := verify.Groups(greedy, items, budget, nil); err != nil {
		t.Errorf("greedy plan fails verify: %v", err)
	}
	if err := verify.Groups(enum, items, budget, nil); err != nil {
		t.Errorf("enum plan fails verify: %v", err)
	}
	if enumStats.Strategy != opt.FuserEnum || greedyStats.Strategy != opt.FuserGreedy {
		t.Errorf("stats strategies %q/%q, want enum/greedy", enumStats.Strategy, greedyStats.Strategy)
	}
	if enumStats.StatesExplored == 0 || enumStats.PairsEvaluated == 0 {
		t.Errorf("enum search counters empty: %+v", enumStats)
	}
	if enumStats.Fallbacks != 0 {
		t.Errorf("enum fell back %d times on a 4-model bucket; budget %d should suffice", enumStats.Fallbacks, opt.DefaultFuseStateBudget)
	}
}

// TestEnumFuserFallsBackToGreedyOnTinyBudget checks graceful degradation:
// with a state budget too small for the bucket, the enum fuser must report the
// fallback and reproduce the greedy partition exactly.
func TestEnumFuserFallsBackToGreedyOnTinyBudget(t *testing.T) {
	items, budget, err := opt.GreedyTrapWorkload()
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := fuseGreedy(items, nil, opt.FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats := &opt.FuseStats{}
	fuser, err := opt.NewFuser(opt.FuserEnum, 1)
	if err != nil {
		t.Fatal(err)
	}
	fell, err := fuser.Fuse(items, nil, opt.FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks == 0 {
		t.Error("state budget 1 must trigger a greedy fallback")
	}
	if len(fell) != len(greedy) {
		t.Fatalf("fallback produced %d groups, greedy %d", len(fell), len(greedy))
	}
	for i := range fell {
		if groupKey(fell[i]) != groupKey(greedy[i]) {
			t.Errorf("fallback group %d (%q) differs from greedy (%q)", i, fell[i].Name(), greedy[i].Name())
		}
	}
}

// TestNewFuserRejectsUnknownName pins the factory's error contract used by
// core.Config validation and the CLI flags.
func TestNewFuserRejectsUnknownName(t *testing.T) {
	for _, name := range []string{"", opt.FuserGreedy} {
		f, err := opt.NewFuser(name, 0)
		if err != nil || f.Name() != opt.FuserGreedy {
			t.Errorf("NewFuser(%q) = %v, %v; want greedy", name, f, err)
		}
	}
	if f, err := opt.NewFuser(opt.FuserEnum, 7); err != nil || f.Name() != opt.FuserEnum {
		t.Errorf("NewFuser(enum) = %v, %v", f, err)
	}
	if _, err := opt.NewFuser("steepest-descent", 0); err == nil {
		t.Error("NewFuser must reject unknown strategy names")
	}
}

// randomFusionWorkload builds a small random workload mixing shared and
// private trunks, batch sizes, and epoch counts.
func randomFusionWorkload(rng *rand.Rand) []opt.WorkItem {
	shared := []*layers.Dense{
		layers.NewDense(12, 24, layers.ActTanh, 41),
		layers.NewDense(12, 16, layers.ActTanh, 42),
		layers.NewDense(12, 20, layers.ActTanh, 43),
	}
	n := 2 + rng.Intn(4)
	items := make([]opt.WorkItem, 0, n)
	for i := 0; i < n; i++ {
		m := graph.NewModel(fmt.Sprintf("rnd%d", i))
		in := m.AddInput("in", 12)
		var parts []*graph.Node
		width := 0
		for j, tr := range shared {
			if rng.Intn(2) == 1 {
				parts = append(parts, m.AddNode(fmt.Sprintf("s%d", j), tr, in))
				width += tr.Out
			}
		}
		parts = append(parts, m.AddNode("own", layers.NewDense(12, 10, layers.ActTanh, rng.Int63()), in))
		width += 10
		trunk := parts[0]
		if len(parts) > 1 {
			trunk = m.AddNode("cat", layers.NewConcat(len(parts)), parts...)
		}
		h := m.AddNode("h", layers.NewDense(width, 2, layers.ActNone, rng.Int63()), trunk)
		h.Trainable = true
		m.SetOutputs(h)
		prof, err := profile.Profile(m, enumTestHW)
		if err != nil {
			panic(err)
		}
		items = append(items, opt.WorkItem{
			Model: m, Prof: prof,
			Epochs:    1 + rng.Intn(2),
			BatchSize: []int{8, 16}[rng.Intn(2)],
			LR:        1e-3,
		})
	}
	return items
}

// TestEnumFuserPropertyNeverWorseThanGreedy: on random workloads, the
// enumerated partition never costs more than greedy's, respects B_mem,
// covers every item exactly once, and both strategies' plans pass the
// verifier, and enumeration is deterministic.
func TestEnumFuserPropertyNeverWorseThanGreedy(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		items := randomFusionWorkload(rng)
		budget := int64(1 << (27 + rng.Intn(14)))
		mk := func(name string, stats *opt.FuseStats) []*opt.FusedGroup {
			f, err := opt.NewFuser(name, 0)
			if err != nil {
				t.Log(err)
				return nil
			}
			gs, err := f.Fuse(items, nil, opt.FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: 2, Stats: stats})
			if err != nil {
				t.Log(err)
				return nil
			}
			return gs
		}
		greedy := mk(opt.FuserGreedy, &opt.FuseStats{})
		enumStats := &opt.FuseStats{}
		enum := mk(opt.FuserEnum, enumStats)
		if greedy == nil || enum == nil {
			return false
		}
		if opt.TotalPlanCost(enum) > opt.TotalPlanCost(greedy) {
			t.Logf("seed %d: enum %d > greedy %d", seed, opt.TotalPlanCost(enum), opt.TotalPlanCost(greedy))
			return false
		}
		for _, gs := range [][]*opt.FusedGroup{greedy, enum} {
			covered := 0
			for _, g := range gs {
				covered += len(g.Items)
				if len(g.Items) > 1 && g.PeakMemBytes > budget {
					return false
				}
			}
			if covered != len(items) {
				return false
			}
			if err := verify.Groups(gs, items, budget, nil); err != nil {
				t.Logf("seed %d: verify: %v", seed, err)
				return false
			}
		}
		// Re-running enumeration must reproduce the same plan (memo and
		// bucket order are deterministic).
		again := mk(opt.FuserEnum, &opt.FuseStats{})
		if len(again) != len(enum) {
			return false
		}
		for i := range enum {
			if groupKey(enum[i]) != groupKey(again[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestEnumFuserRespectsBucketBoundaries checks mixed batch sizes and
// epochs never fuse across compatibility classes.
func TestEnumFuserRespectsBucketBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomFusionWorkload(rng)
	// Force at least two compatibility classes.
	items[0].BatchSize, items[1].BatchSize = 8, 16
	fuser, err := opt.NewFuser(opt.FuserEnum, 0)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fuser.Fuse(items, nil, opt.FuseConfig{MemBudgetBytes: 1 << 40, OptimizerSlotBytes: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		for _, it := range g.Items {
			if it.BatchSize != g.BatchSize() || it.Epochs != g.Epochs() {
				t.Errorf("group %q mixes compatibility classes", g.Name())
			}
		}
	}
	if err := verify.Groups(groups, items, 1<<40, nil); err != nil {
		t.Errorf("verify: %v", err)
	}
}

// TestEnumFuserMemoKeysMembersNotNames: model names may hold the separator
// a joined-name key would use. In one bucket, "a|b" and "c" train on
// private trunks while "a" and "b|c" share one, and B_mem holds every pair
// but no triple; {a, b|c} and {a|b, c} both spell "a|b|c". The enumerated
// plan must still train each candidate in exactly one group, priced as its
// own members, and pass the verifier.
func TestEnumFuserMemoKeysMembersNotNames(t *testing.T) {
	shared := layers.NewDense(12, 48, layers.ActTanh, 51)
	build := func(name string, trunk *layers.Dense) opt.WorkItem {
		m := graph.NewModel(name)
		tr := m.AddNode("trunk", trunk, m.AddInput("in", 12))
		head := m.AddNode("head", layers.NewDense(48, 2, layers.ActNone, int64(len(name))+52), tr)
		head.Trainable = true
		m.SetOutputs(head)
		prof, err := profile.Profile(m, enumTestHW)
		if err != nil {
			t.Fatal(err)
		}
		return opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8}
	}
	items := []opt.WorkItem{
		build("a", shared),
		build("a|b", layers.NewDense(12, 48, layers.ActTanh, 53)),
		build("b|c", shared),
		build("c", layers.NewDense(12, 48, layers.ActTanh, 54)),
	}
	peak := func(members ...opt.WorkItem) int64 {
		g, err := opt.BuildGroup(members, nil, opt.ReusePlan, opt.AdamSlotBytes)
		if err != nil {
			t.Fatal(err)
		}
		return g.PeakMemBytes
	}
	var budget int64
	for i := range items {
		for j := i + 1; j < len(items); j++ {
			budget = max(budget, peak(items[i], items[j]))
		}
	}
	for i := range items {
		rest := append(append([]opt.WorkItem(nil), items[:i]...), items[i+1:]...)
		if p := peak(rest...); p <= budget {
			t.Fatalf("fixture: the triple without %s peaks at %d, within B_mem %d", items[i].Model.Name, p, budget)
		}
	}

	fuser, err := opt.NewFuser(opt.FuserEnum, 0)
	if err != nil {
		t.Fatal(err)
	}
	stats := &opt.FuseStats{}
	groups, err := fuser.Fuse(items, nil, opt.FuseConfig{MemBudgetBytes: budget, OptimizerSlotBytes: opt.AdamSlotBytes, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fallbacks != 0 {
		t.Fatalf("the bucket fell back to greedy (%+v): the memo was not searched", *stats)
	}
	seen := map[string]int{}
	for _, g := range groups {
		for _, it := range g.Items {
			seen[it.Model.Name]++
		}
		want, err := opt.BuildGroup(g.Items, nil, opt.ReusePlan, opt.AdamSlotBytes)
		if err != nil {
			t.Fatal(err)
		}
		if g.Plan.CostPerRecord != want.Plan.CostPerRecord || g.PeakMemBytes != want.PeakMemBytes {
			t.Errorf("group %s: cost %d peak %d, its members price at %d and %d", groupKey(g), g.Plan.CostPerRecord, g.PeakMemBytes, want.Plan.CostPerRecord, want.PeakMemBytes)
		}
	}
	for _, it := range items {
		if seen[it.Model.Name] != 1 {
			t.Errorf("%s trains in %d groups, want 1", it.Model.Name, seen[it.Model.Name])
		}
	}
	if err := verify.Groups(groups, items, budget, nil); err != nil {
		t.Errorf("verify: %v", err)
	}
}
