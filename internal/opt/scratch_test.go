package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/models"
	"nautilus/internal/profile"
)

// scratchCase is one (profile, V) problem with the answers a fresh scratch
// gives.
type scratchCase struct {
	name string
	prof *profile.ModelProfile
	sigs map[graph.Signature]bool
	plan *Plan
	mem  MemoryEstimate
}

// scratchCases returns problems of clearly different sizes and shapes: a
// mini singleton, a paper-scale singleton and a four-member paper-scale
// group, each with nothing, every second candidate and everything
// materialized, plus eight random DAGs (randomDAG: 3–7 nodes, trainable and
// frozen layers in any order, dead branches) under random V.
func scratchCases(t *testing.T) []scratchCase {
	t.Helper()
	miniItems, _ := miniWorkload(t, 1)
	hub := models.NewBERTHub(models.BERTBase())
	var paper []WorkItem
	for i := 0; i < 4; i++ {
		m, err := hub.FeatureTransferModel(fmt.Sprintf("s%d", i), models.FeatConcatLast4, 9, int64(700+i))
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		paper = append(paper, WorkItem{Model: m, Prof: prof, Epochs: 5, BatchSize: 16})
	}
	fused, err := BuildGroup(paper, nil, ReusePlan, AdamSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	// every keep-th materializable layer of the profile's graph.
	every := func(p *profile.ModelProfile, keep func(i int) bool) map[graph.Signature]bool {
		sigs := map[graph.Signature]bool{}
		for i := range p.Layers {
			if lp := &p.Layers[i]; lp.Materializable && !lp.Node.IsInput() && keep(i) {
				sigs[lp.Sig] = true
			}
		}
		return sigs
	}
	var cases []scratchCase
	add := func(name string, prof *profile.ModelProfile, sigs map[graph.Signature]bool) {
		plan, err := new(scratch).solve(prof, sigs)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, scratchCase{name, prof, sigs, plan, new(scratch).peakMemory(plan, 16, AdamSlotBytes)})
	}
	for _, c := range []struct {
		name string
		prof *profile.ModelProfile
	}{{"mini", miniItems[0].Prof}, {"paper", paper[0].Prof}, {"fused4", fused.Plan.Prof}} {
		add(c.name+" V=none", c.prof, nil)
		add(c.name+" V=half", c.prof, every(c.prof, func(i int) bool { return i%2 == 0 }))
		add(c.name+" V=U", c.prof, every(c.prof, func(int) bool { return true }))
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		prof, err := profile.Profile(randomDAG(rng, fmt.Sprintf("dag%d", i)), profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		add(prof.Model.Name, prof, every(prof, func(int) bool { return rng.Intn(2) == 0 }))
	}
	return cases
}

// TestScratchResultsDoNotDependOnHistory: whatever a scratch solved before
// — a larger graph, a smaller one, the same one — the plan, the cost-only
// evaluation and the memory estimate equal a fresh scratch's. Every ordered
// pair (A, B) runs A, B, A on one scratch, so both larger-then-smaller (a
// stale tail of head/level/lastUse) and smaller-then-larger (a buffer grown
// mid-run) are covered.
func TestScratchResultsDoNotDependOnHistory(t *testing.T) {
	cases := scratchCases(t)
	check := func(sc *scratch, c scratchCase, after string) {
		t.Helper()
		plan, err := sc.solve(c.prof, c.sigs)
		if err != nil {
			t.Fatal(err)
		}
		if plan.CostPerRecord != c.plan.CostPerRecord || !reflect.DeepEqual(plan.Actions, c.plan.Actions) {
			t.Errorf("%s after %s: plan differs from a fresh scratch's (cost %d vs %d)", c.name, after, plan.CostPerRecord, c.plan.CostPerRecord)
		}
		loadable := make([]bool, len(c.prof.Layers))
		for i := range loadable {
			loadable[i] = c.sigs[c.prof.Layers[i].Sig]
		}
		if cost, err := sc.planCost(c.prof, loadable); err != nil || cost != c.plan.CostPerRecord {
			t.Errorf("%s after %s: cost-only evaluation %d (%v), want %d", c.name, after, cost, err, c.plan.CostPerRecord)
		}
		if mem := sc.peakMemory(plan, 16, AdamSlotBytes); mem != c.mem {
			t.Errorf("%s after %s: memory estimate %+v, fresh %+v", c.name, after, mem, c.mem)
		}
	}
	for _, a := range cases {
		for _, b := range cases {
			sc := new(scratch)
			check(sc, a, "nothing")
			check(sc, b, a.name)
			check(sc, a, b.name)
		}
	}
}

// TestSingletonGroupsConcurrentScratch builds 16 singleton groups on at
// least two goroutines at once — each worker borrows a pooled scratch — and
// compares every group with a serial build. `make check` runs this package
// under -race.
func TestSingletonGroupsConcurrentScratch(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	items, mm := miniWorkload(t, 16)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 100})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		groups, err := SingletonGroups(items, res.Sigs, ReusePlan, AdamSlotBytes)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range groups {
			want, err := BuildGroup([]WorkItem{items[i]}, res.Sigs, ReusePlan, AdamSlotBytes)
			if err != nil {
				t.Fatal(err)
			}
			if g.Plan.CostPerRecord != want.Plan.CostPerRecord || g.PeakMemBytes != want.PeakMemBytes || !reflect.DeepEqual(g.Plan.Actions, want.Plan.Actions) {
				t.Fatalf("round %d: group %s differs from its serial build", round, g.Name())
			}
		}
	}
}

// TestPlannerInnerLoopAllocations pins what the inner loop allocates once
// its scratch is warm, on a 4-node random DAG and a 28-node fused
// paper-scale group alike: pricing a plan nothing; solving one the Plan and
// its action slice; the memory replay nothing.
func TestPlannerInnerLoopAllocations(t *testing.T) {
	const (
		costAllocs  = 0
		solveAllocs = 2 // *Plan + Plan.Actions
		memAllocs   = 0
	)
	for _, c := range scratchCases(t) {
		loadable := make([]bool, len(c.prof.Layers))
		for i := range loadable {
			loadable[i] = c.sigs[c.prof.Layers[i].Sig]
		}
		sc := new(scratch)
		if got := testing.AllocsPerRun(50, func() {
			if _, err := sc.planCost(c.prof, loadable); err != nil {
				t.Fatal(err)
			}
		}); got != costAllocs {
			t.Errorf("%s (%d nodes): cost-only evaluation allocates %v times, want %d", c.name, len(c.prof.Layers), got, costAllocs)
		}
		// SolveReusePlan and EstimatePeakMemory are these two on a pooled
		// scratch; the pool itself is left out because under -race it drops
		// what it is handed at random.
		if got := testing.AllocsPerRun(50, func() {
			if _, err := sc.solve(c.prof, c.sigs); err != nil {
				t.Fatal(err)
			}
		}); got > solveAllocs {
			t.Errorf("%s (%d nodes): SolveReusePlan allocates %v times, want at most %d", c.name, len(c.prof.Layers), got, solveAllocs)
		}
		if got := testing.AllocsPerRun(50, func() {
			sc.peakMemory(c.plan, 16, AdamSlotBytes)
		}); got > memAllocs {
			t.Errorf("%s (%d nodes): EstimatePeakMemory allocates %v times, want at most %d", c.name, len(c.prof.Layers), got, memAllocs)
		}
	}
}
