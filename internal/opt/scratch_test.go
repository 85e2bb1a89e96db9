package opt

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/models"
	"nautilus/internal/profile"
)

// scratchCase is one (graph, V) problem with the answers a fresh scratch
// gives. The graph is prof's own, or the merged view of items numbered by nb
// when items is set.
type scratchCase struct {
	name    string
	prof    *profile.ModelProfile
	items   []WorkItem
	nb      *numbering
	sigs    map[graph.Signature]bool
	actions []Action
	cost    int64
	mem     MemoryEstimate
}

// view sets up the case's view on sc.
func (c scratchCase) view(t *testing.T, sc *scratch) *view {
	t.Helper()
	if c.items == nil {
		return sc.view.wrap(c.prof)
	}
	v, err := sc.merge(c.nb, c.items)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// paperItems returns n paper-scale FTR-3 candidates on one BERT-base trunk.
func paperItems(t *testing.T, n int) []WorkItem {
	t.Helper()
	hub := models.NewBERTHub(models.BERTBase())
	var items []WorkItem
	for i := 0; i < n; i++ {
		m, err := hub.FeatureTransferModel(fmt.Sprintf("s%d", i), models.FeatConcatLast4, 9, int64(700+i))
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, WorkItem{Model: m, Prof: prof, Epochs: 5, BatchSize: 16})
	}
	return items
}

// scratchCases returns problems of clearly different sizes and shapes: a
// mini singleton, a paper-scale singleton, a four-member paper-scale group's
// built graph, and the merged views of a pair and of all four members, each
// with nothing, every second candidate and everything materialized, plus
// eight random DAGs (randomDAG: 3–7 nodes, trainable and frozen layers in
// any order, dead branches) under random V.
func scratchCases(t *testing.T) []scratchCase {
	t.Helper()
	miniItems, _ := miniWorkload(t, 1)
	paper := paperItems(t, 4)
	nb := number(paper)
	fused, err := BuildGroup(paper, nil, ReusePlan, AdamSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	// every keep-th materializable layer of the fused graph.
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
	add := func(c scratchCase) {
		sc := new(scratch)
		v := c.view(t, sc)
		var err error
		if c.actions, c.cost, err = sc.solve(v, c.sigs); err != nil {
			t.Fatal(err)
		}
		c.mem = sc.peakMemory(v, c.actions, 16, AdamSlotBytes)
		cases = append(cases, c)
	}
	for _, c := range []scratchCase{
		{name: "mini", prof: miniItems[0].Prof},
		{name: "paper", prof: paper[0].Prof},
		{name: "fused4", prof: fused.Plan.Prof},
		{name: "view2", items: paper[:2], nb: nb},
		{name: "view4", items: paper, nb: nb},
	} {
		p := fused.Plan.Prof
		if c.prof != nil {
			p = c.prof
		}
		for _, v := range []struct {
			name string
			keep func(int) bool
		}{{"none", func(int) bool { return false }}, {"half", func(i int) bool { return i%2 == 0 }}, {"U", func(int) bool { return true }}} {
			c := c
			c.name, c.sigs = c.name+" V="+v.name, every(p, v.keep)
			add(c)
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		prof, err := profile.Profile(randomDAG(rng, fmt.Sprintf("dag%d", i)), profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		add(scratchCase{name: prof.Model.Name, prof: prof, sigs: every(prof, func(int) bool { return rng.Intn(2) == 0 })})
	}
	return cases
}

// TestScratchResultsDoNotDependOnHistory: whatever a scratch solved before
// — a larger graph, a smaller one, the same one, a wrapped profile or a
// merged view — the plan, the cost-only evaluation and the memory estimate
// equal a fresh scratch's. Every ordered pair (A, B) runs A, B, A on one
// scratch, so both larger-then-smaller (a stale tail of head/level/lastUse)
// and smaller-then-larger (a buffer grown mid-run) are covered.
func TestScratchResultsDoNotDependOnHistory(t *testing.T) {
	cases := scratchCases(t)
	check := func(sc *scratch, c scratchCase, after string) {
		t.Helper()
		v := c.view(t, sc)
		actions, cost, err := sc.solve(v, c.sigs)
		if err != nil {
			t.Fatal(err)
		}
		if cost != c.cost || !reflect.DeepEqual(actions, c.actions) {
			t.Errorf("%s after %s: plan differs from a fresh scratch's (cost %d vs %d)", c.name, after, cost, c.cost)
		}
		loadable := make([]bool, len(v.layer))
		for i, lp := range v.layer {
			loadable[i] = c.sigs[lp.Sig]
		}
		if cost, err := sc.planCost(v, loadable); err != nil || cost != c.cost {
			t.Errorf("%s after %s: cost-only evaluation %d (%v), want %d", c.name, after, cost, err, c.cost)
		}
		if mem := sc.peakMemory(v, actions, 16, AdamSlotBytes); mem != c.mem {
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

// TestSingletonGroupsConcurrentScratch runs SingletonGroups for 16 items on
// four goroutines at once — every BuildGroup borrows a pooled scratch — and
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
	want, err := SingletonGroups(items, res.Sigs, ReusePlan, AdamSlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				groups, err := SingletonGroups(items, res.Sigs, ReusePlan, AdamSlotBytes)
				if err != nil {
					t.Error(err)
					return
				}
				for i, g := range groups {
					if g.Plan.CostPerRecord != want[i].Plan.CostPerRecord || g.PeakMemBytes != want[i].PeakMemBytes || !reflect.DeepEqual(g.Plan.Actions, want[i].Plan.Actions) {
						t.Errorf("worker %d round %d: group %s differs from its serial build", w, round, g.Name())
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlannerInnerLoopAllocations pins what the inner loop allocates once
// its scratch is warm, on a 4-node random DAG, a 28-node fused paper-scale
// graph and merged views alike: setting a view up nothing; pricing a plan
// nothing; solving one its action slice; the memory replay nothing; and
// pricing a FUSE OPT trial pair the trial and its action slice.
func TestPlannerInnerLoopAllocations(t *testing.T) {
	const (
		viewAllocs  = 0
		costAllocs  = 0
		solveAllocs = 1 // the action slice
		memAllocs   = 0
		pairAllocs  = 2 // *trial + its action slice
	)
	for _, c := range scratchCases(t) {
		sc := new(scratch)
		v := c.view(t, sc)
		if got := testing.AllocsPerRun(50, func() { c.view(t, sc) }); got > viewAllocs {
			t.Errorf("%s (%d nodes): setting the view up allocates %v times, want at most %d", c.name, len(v.layer), got, viewAllocs)
		}
		loadable := make([]bool, len(v.layer))
		for i, lp := range v.layer {
			loadable[i] = c.sigs[lp.Sig]
		}
		if got := testing.AllocsPerRun(50, func() {
			if _, err := sc.planCost(v, loadable); err != nil {
				t.Fatal(err)
			}
		}); got != costAllocs {
			t.Errorf("%s (%d nodes): cost-only evaluation allocates %v times, want %d", c.name, len(v.layer), got, costAllocs)
		}
		// SolveReusePlan and EstimatePeakMemory are these two on a pooled
		// scratch; the pool itself is left out because under -race it drops
		// what it is handed at random.
		if got := testing.AllocsPerRun(50, func() {
			if _, _, err := sc.solve(v, c.sigs); err != nil {
				t.Fatal(err)
			}
		}); got > solveAllocs {
			t.Errorf("%s (%d nodes): SolveReusePlan allocates %v times, want at most %d", c.name, len(v.layer), got, solveAllocs)
		}
		if got := testing.AllocsPerRun(50, func() {
			sc.peakMemory(v, c.actions, 16, AdamSlotBytes)
		}); got > memAllocs {
			t.Errorf("%s (%d nodes): EstimatePeakMemory allocates %v times, want at most %d", c.name, len(v.layer), got, memAllocs)
		}
	}
	paper := paperItems(t, 3)
	nb, sc := number(paper), new(scratch)
	if got := testing.AllocsPerRun(50, func() {
		if _, err := sc.price(nb, paper[1:], nil, ReusePlan, AdamSlotBytes); err != nil {
			t.Fatal(err)
		}
	}); got > pairAllocs {
		t.Errorf("pricing a paper-scale trial pair allocates %v times, want at most %d", got, pairAllocs)
	}
}
