package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/models"
	"nautilus/internal/opt"
)

// nerInit is a ModelInitFunc over a shared mini hub, interpreting the
// search parameters the way the paper's API describes: "strategy" is an
// architectural parameter, "lr" a training hyperparameter.
func nerInit(hub *models.BERTHub) ModelInitFunc {
	idx := 0
	return func(p map[string]any) (*graph.Model, Hyper, error) {
		strat := p["strategy"].(models.FeatureStrategy)
		lr := p["lr"].(float64)
		idx++
		m, err := hub.FeatureTransferModel(
			fmt.Sprintf("%s-lr%g", strat, lr), strat, 9, int64(2000+idx))
		return m, Hyper{Epochs: 2, BatchSize: 8, LR: lr}, err
	}
}

var searchSpace = SearchSpace{
	"strategy": {models.FeatLastHidden, models.FeatSecondLastHidden},
	"lr":       {5e-3, 2e-3, 1e-3},
}

func TestGridSearchEnumeratesFullProduct(t *testing.T) {
	hub := models.NewBERTHub(models.BERTMini())
	items, mm, err := GridSearch(searchSpace, nerInit(hub), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 {
		t.Fatalf("grid produced %d candidates, want 6", len(items))
	}
	if mm.Graph.NumNodes() == 0 {
		t.Fatal("multi-model missing")
	}
	// Deterministic order: the last sorted key ("strategy") varies
	// fastest, so the first two candidates share the first lr.
	if items[0].LR != 5e-3 || items[1].LR != 5e-3 || items[2].LR != 2e-3 {
		t.Errorf("unexpected enumeration order: %v %v %v", items[0].LR, items[1].LR, items[2].LR)
	}
	if items[0].Model.Name == items[1].Model.Name {
		t.Error("first two candidates must differ in strategy")
	}
}

func TestRandomSearchSamplesSubset(t *testing.T) {
	hub := models.NewBERTHub(models.BERTMini())
	items, _, err := RandomSearch(searchSpace, 3, 7, nerInit(hub), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("random search produced %d candidates, want 3", len(items))
	}
	// Distinct candidates.
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it.Model.Name] {
			t.Errorf("duplicate candidate %q", it.Model.Name)
		}
		seen[it.Model.Name] = true
	}
	// Oversampling degrades to the full grid.
	hub2 := models.NewBERTHub(models.BERTMini())
	all, _, err := RandomSearch(searchSpace, 99, 7, nerInit(hub2), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 6 {
		t.Errorf("oversampled random search produced %d, want 6", len(all))
	}
}

func TestRandomSearchDeterministicPerSeed(t *testing.T) {
	hubA := models.NewBERTHub(models.BERTMini())
	a, _, err := RandomSearch(searchSpace, 3, 42, nerInit(hubA), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	hubB := models.NewBERTHub(models.BERTMini())
	b, _, err := RandomSearch(searchSpace, 3, 42, nerInit(hubB), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Model.Name != b[i].Model.Name {
			t.Fatal("same seed must sample the same candidates")
		}
	}
}

func TestGridSearchEmptySpaceErrors(t *testing.T) {
	hub := models.NewBERTHub(models.BERTMini())
	if _, _, err := GridSearch(SearchSpace{"lr": {}}, nerInit(hub), miniHW); err == nil {
		t.Error("a dimension with no values should error")
	}
}

func TestEvolvingWorkloadAddAndRemove(t *testing.T) {
	snaps := snapshots(t, 2)
	ms := newMS(t, Nautilus)

	res1, err := ms.Fit(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Results) != 4 {
		t.Fatalf("initial results %d", len(res1.Results))
	}

	// Grow the workload with a fifth candidate sharing the trunk.
	hub := models.NewBERTHub(models.BERTMini())
	extra, _, err := GridSearch(SearchSpace{
		"strategy": {models.FeatSumLast4},
		"lr":       {3e-3},
	}, nerInit(hub), miniHW)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.AddCandidates(extra...); err != nil {
		t.Fatal(err)
	}
	res2, err := ms.Fit(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Results) != 5 {
		t.Fatalf("after add: %d results, want 5", len(res2.Results))
	}
	if !res2.ReOptimized {
		t.Error("adding candidates must trigger re-optimization")
	}

	// Shrink back.
	if err := ms.RemoveCandidate(extra[0].Model.Name); err != nil {
		t.Fatal(err)
	}
	res3, err := ms.Fit(snaps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res3.Results) != 4 {
		t.Fatalf("after remove: %d results, want 4", len(res3.Results))
	}
	if err := ms.RemoveCandidate("nope"); err == nil {
		t.Error("removing an unknown candidate should error")
	}
	if got := len(ms.Candidates()); got != 4 {
		t.Errorf("candidates = %d, want 4", got)
	}
}

func TestEntropyScoresAndActiveLearningLoop(t *testing.T) {
	// End-to-end Figure 1(A): train → score unlabeled pool with the best
	// model → label the most uncertain batch → repeat.
	items, mm := tinyWorkload(t)
	cfg := DefaultConfig(t.TempDir())
	cfg.HW = miniHW
	cfg.MaxRecords = 600
	ms, err := New(items, mm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	pool := data.SynthNER(data.NERConfig{Records: 300, Seq: 12, Vocab: 1024, Types: 4, Seed: 55})
	al := data.NewLabeler(pool, 40, 32)

	var best string
	for cycle := 0; cycle < 2; cycle++ {
		var scores []float64
		if best != "" {
			m, ok := ms.BestModel(best)
			if !ok {
				t.Fatalf("best model %q not found", best)
			}
			idx := pool.UnlabeledIndices()
			if _, err := EntropyScores(m, "nope", pool.GatherX(idx), 16); err == nil || !strings.Contains(err.Error(), `no feed for input "ids"`) {
				t.Fatalf("unknown input name: error %v, want no feed for input \"ids\"", err)
			}
			scores, err = EntropyScores(m, "ids", pool.GatherX(idx), 16)
			if err != nil {
				t.Fatal(err)
			}
			if len(scores) != len(idx) {
				t.Fatalf("%d scores for %d unlabeled", len(scores), len(idx))
			}
			for _, s := range scores {
				if s < 0 || math.IsNaN(s) {
					t.Fatalf("bad entropy score %v", s)
				}
			}
		}
		snap, err := al.NextCycleScored(scores)
		if err != nil {
			t.Fatal(err)
		}
		fit, err := ms.Fit(snap)
		if err != nil {
			t.Fatal(err)
		}
		best = fit.Best.Model
	}
	if best == "" {
		t.Fatal("no winner selected")
	}
}

func TestFitHalvingNarrowsField(t *testing.T) {
	snaps := snapshots(t, 2)
	ms := newMS(t, Nautilus)
	res, err := ms.FitHalving(snaps[1], HalvingConfig{RungEpochs: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 candidates → rung 1: 4, rung 2: 2.
	if len(res.RungSurvivors) != 2 || res.RungSurvivors[0] != 4 || res.RungSurvivors[1] != 2 {
		t.Fatalf("survivors = %v, want [4 2]", res.RungSurvivors)
	}
	if len(res.Results) != 2 {
		t.Fatalf("final rung results = %d, want 2", len(res.Results))
	}
	if res.Best.Model == "" || res.Best.ValAcc <= 0 {
		t.Error("no winner")
	}
	// Ranked descending.
	if res.Results[0].ValAcc < res.Results[1].ValAcc {
		t.Error("results not ranked")
	}
	// Budget: 4×1 + 2×2 = 8 epoch-candidates vs 4×2=8 full... compare
	// against three rungs to see savings accounting.
	if res.TotalEpochsTrained != 4*1+2*2 {
		t.Errorf("epochs trained = %d, want 8", res.TotalEpochsTrained)
	}
}

// groupShape renders a plan's groups as member names, cost and peak memory,
// the parts of a group an Approach decides.
func groupShape(groups []*opt.FusedGroup) []string {
	var out []string
	for _, g := range groups {
		var names []string
		for _, it := range g.Items {
			names = append(names, it.Model.Name)
		}
		sort.Strings(names)
		out = append(out, fmt.Sprintf("%v cost=%d mem=%d", names, g.Plan.CostPerRecord, g.PeakMemBytes))
	}
	sort.Strings(out)
	return out
}

// TestFitHalvingHonoursApproach pins that halving rungs are grouped by the
// planner's own grouping stage: an approach that does not fuse trains
// singleton rung groups, and a fusing approach's first rung (every
// candidate, at the configured epochs) is exactly the plan Replan produced.
func TestFitHalvingHonoursApproach(t *testing.T) {
	snaps := snapshots(t, 1)
	halving := HalvingConfig{RungEpochs: []int{2, 1}} // rung 0 = tinyWorkload's own epochs

	ms := newMS(t, NautilusNoFuse)
	res, err := ms.FitHalving(snaps[0], halving)
	if err != nil {
		t.Fatal(err)
	}
	for rung, groups := range res.RungGroups {
		if len(groups) != res.RungSurvivors[rung] {
			t.Errorf("nautilus_no_fuse rung %d: %d groups for %d survivors, want singletons", rung, len(groups), res.RungSurvivors[rung])
		}
	}

	ms = newMS(t, Nautilus)
	res, err = ms.FitHalving(snaps[0], halving)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RungGroups) != 2 {
		t.Fatalf("%d rungs recorded, want 2", len(res.RungGroups))
	}
	if len(ms.Groups()) >= len(ms.Planner().Items()) {
		t.Fatalf("nautilus fused nothing on the tiny workload (%d groups)", len(ms.Groups()))
	}
	if got, want := groupShape(res.RungGroups[0]), groupShape(ms.Groups()); !reflect.DeepEqual(got, want) {
		t.Errorf("rung 0 groups differ from Replan's:\n got %v\nwant %v", got, want)
	}
	trained := 0
	for _, g := range res.RungGroups[1] {
		trained += len(g.Items)
	}
	if trained != res.RungSurvivors[1] {
		t.Errorf("rung 1 groups train %d candidates, want the %d survivors", trained, res.RungSurvivors[1])
	}
}

// TestFitHalvingReportsCycleFacts pins the FitResult facts a halving cycle
// shares with Fit: its wall-clock duration, and that the first cycle is the
// one that planned.
func TestFitHalvingReportsCycleFacts(t *testing.T) {
	snaps := snapshots(t, 2)
	ms := newMS(t, Nautilus)
	halving := HalvingConfig{RungEpochs: []int{1}}
	res, err := ms.FitHalving(snaps[0], halving)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle != 1 || !res.ReOptimized || res.Duration <= 0 {
		t.Errorf("first cycle: Cycle=%d ReOptimized=%v Duration=%v, want 1, true, > 0", res.Cycle, res.ReOptimized, res.Duration)
	}
	res, err = ms.FitHalving(snaps[0], halving)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycle != 2 || res.ReOptimized || res.Duration <= 0 {
		t.Errorf("unchanged snapshot: Cycle=%d ReOptimized=%v Duration=%v, want 2, false, > 0", res.Cycle, res.ReOptimized, res.Duration)
	}
}

func TestFitHalvingValidation(t *testing.T) {
	snaps := snapshots(t, 1)
	ms := newMS(t, Nautilus)
	if _, err := ms.FitHalving(snaps[0], HalvingConfig{}); err == nil {
		t.Error("zero rungs should error")
	}
	// Keep fraction out of range falls back to 0.5.
	res, err := ms.FitHalving(snaps[0], HalvingConfig{RungEpochs: []int{1, 1}, Keep: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.RungSurvivors[1] != 2 {
		t.Errorf("fallback keep fraction not applied: %v", res.RungSurvivors)
	}
}
