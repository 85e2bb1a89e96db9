// Uncertainty sampling: the full active-learning loop of the paper's
// Figure 1(A). Each cycle, the previous round's best model scores the
// unlabeled pool by mean softmax entropy, the simulated human labels the
// most uncertain batch, and Nautilus re-runs optimized model selection over
// all labeled data.
//
//	go run ./examples/uncertainty_sampling
package main

import (
	"fmt"
	"log"
	"os"

	"nautilus/internal/core"
	"nautilus/internal/data"
	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/models"
)

func main() {
	hub := models.NewBERTHub(models.BERTMini())
	idx := 0
	space := core.SearchSpace{
		"strategy": {models.FeatLastHidden, models.FeatConcatLast4},
		"lr":       {5e-3, 2e-3},
	}
	init := func(p map[string]any) (*graph.Model, core.Hyper, error) {
		strat := p["strategy"].(models.FeatureStrategy)
		lr := p["lr"].(float64)
		idx++
		m, err := hub.FeatureTransferModel(fmt.Sprintf("%s-lr%g", strat, lr), strat, 9, int64(900+idx))
		return m, core.Hyper{Epochs: 3, BatchSize: 8, LR: lr}, err
	}
	items, mm, err := core.GridSearch(space, init, experiments.MiniHardware())
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "nautilus-al-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := core.DefaultConfig(dir)
	cfg.HW = experiments.MiniHardware()
	cfg.MaxRecords = 600
	ms, err := core.New(items, mm, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Close()

	pool := data.SynthNER(data.NERConfig{Records: 500, Seq: 12, Vocab: 1024, Types: 4, Seed: 31})
	labeler := data.NewLabeler(pool, 50, 40)

	var best string
	for cycle := 1; cycle <= 4 && labeler.HasMore(); cycle++ {
		// Score the unlabeled pool with last cycle's winner (cycle 1 has no
		// model yet → sequential labeling).
		var scores []float64
		sampler := "sequential (no model yet)"
		if best != "" {
			m, _ := ms.BestModel(best)
			unlabeled := pool.UnlabeledIndices()
			scores, err = core.EntropyScores(m, "ids", pool.GatherX(unlabeled), 16)
			if err != nil {
				log.Fatal(err)
			}
			sampler = fmt.Sprintf("entropy scores from %s", best)
		}
		snap, err := labeler.NextCycleScored(scores)
		if err != nil {
			log.Fatal(err)
		}
		fit, err := ms.Fit(snap)
		if err != nil {
			log.Fatal(err)
		}
		best = fit.Best.Model
		fmt.Printf("cycle %d [%s]\n", cycle, sampler)
		fmt.Printf("  labeled %d records total → best %s (%.4f accuracy) in %v\n",
			snap.TrainSize()+snap.ValidSize(), best, fit.Best.ValAcc, fit.Duration.Round(1e7))
	}
}
