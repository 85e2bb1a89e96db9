// NER active learning: the paper's motivating scenario (Section 1).
//
// A data scientist labels clinical-style text in cycles and re-runs model
// selection over a feature-transfer grid after every cycle. This example
// runs the same evolving workload twice — once as Current Practice, once
// with Nautilus — and reports identical accuracy trajectories at a
// fraction of the runtime.
//
//	go run ./examples/ner_active_learning
package main

import (
	"fmt"
	"log"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/workloads"
)

func main() {
	// A trimmed FTR-2: two strategies × two learning rates at one batch
	// size, so the demo finishes in under a minute of real training.
	spec := workloads.FTR2()
	spec.Name = "ner-demo"
	spec.Strategies = spec.Strategies[:2]
	spec.BatchSizes = []int{8}
	spec.LRs = []float64{5e-5, 2e-5}
	spec.Epochs = []int{3}

	fmt.Printf("workload: %d candidate models over an evolving NER corpus\n\n", spec.NumModels())

	reports, err := experiments.RunMini(spec, []core.Approach{core.CurrentPractice, core.Nautilus}, 42, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, report := range reports {
		fmt.Printf("--- %s ---\n", report.Approach)
		for _, c := range report.Cycles {
			fmt.Printf("cycle %d: %3d labeled train records → best accuracy %.4f (%v)\n",
				c.Cycle, c.TrainSize, c.BestAcc, c.Duration.Round(1e7))
		}
		fmt.Printf("total: %v\n\n", report.Total.Round(1e7))
	}

	cp, nt := reports[0], reports[1]
	fmt.Printf("speedup: %.1fX with matching accuracy trajectories:\n", cp.Total.Seconds()/nt.Total.Seconds())
	for i := range cp.Cycles {
		fmt.Printf("  cycle %d: current practice %.4f vs nautilus %.4f\n", i+1, cp.Cycles[i].BestAcc, nt.Cycles[i].BestAcc)
	}
}
