package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/models"
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
	if got := len(candidateNames(ms.Planner())); got != 4 {
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
