// Package workloads defines the five end-to-end model-selection workloads
// of the paper's evaluation (Table 3): three feature-transfer grids over a
// BERT-style encoder (FTR-1/2/3), one adapter-training grid (ATR), and one
// fine-tuning grid over a ResNet-style CNN (FTU). Each workload builds at
// two scales: Paper (BERT-base / ResNet-50 topology, driven through the
// cost-clock simulator) and Mini (CPU-trainable miniatures exercising the
// identical code path with real training).
package workloads

import (
	"fmt"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
)

// Scale selects model and dataset sizing.
type Scale int

// Scales.
const (
	Mini Scale = iota
	Paper
)

func (s Scale) String() string {
	if s == Paper {
		return "paper"
	}
	return "mini"
}

// Approach names the transfer-learning scheme a workload uses.
type Approach string

// Transfer learning approaches (Section 2.4).
const (
	FeatureTransfer Approach = "feature_transfer"
	AdapterTraining Approach = "adapter_training"
	FineTuning      Approach = "fine_tuning"
)

// Spec declares one Table 3 workload: the architectural variants explored
// plus the common hyperparameter grid.
type Spec struct {
	Name     string
	Approach Approach
	// Strategies lists feature-transfer strategies (FTR-*).
	Strategies []models.FeatureStrategy
	// Depths lists top-k block counts: adapter placement depth (ATR) or
	// fine-tuned block count (FTU), at paper scale.
	Depths []int
	// MiniDepths are the equivalents at mini scale (same depth fractions
	// of the smaller trunk).
	MiniDepths []int
	// AdapterBottleneck is the Houlsby adapter width (ATR).
	AdapterBottleneck int

	BatchSizes []int
	LRs        []float64
	Epochs     []int
}

// NumModels returns the grid size |Q|.
func (s Spec) NumModels() int {
	v := len(s.Strategies)
	if v == 0 {
		v = len(s.Depths)
	}
	return v * len(s.BatchSizes) * len(s.LRs) * len(s.Epochs)
}

// The paper's hyperparameter grid: batch {16,32}, lr {5,3,2}×10⁻⁵.
var (
	paperBatches = []int{16, 32}
	paperLRs     = []float64{5e-5, 3e-5, 2e-5}
)

// FTR1 is feature transfer over all six strategies of Devlin et al.
// (36 models).
func FTR1() Spec {
	return Spec{
		Name:     "FTR-1",
		Approach: FeatureTransfer,
		Strategies: []models.FeatureStrategy{
			models.FeatEmbedding, models.FeatSecondLastHidden, models.FeatLastHidden,
			models.FeatSumLast4, models.FeatConcatLast4, models.FeatSumAll,
		},
		BatchSizes: paperBatches, LRs: paperLRs, Epochs: []int{5},
	}
}

// FTR2 is feature transfer over four strategies (24 models).
func FTR2() Spec {
	return Spec{
		Name:     "FTR-2",
		Approach: FeatureTransfer,
		Strategies: []models.FeatureStrategy{
			models.FeatSecondLastHidden, models.FeatLastHidden,
			models.FeatSumLast4, models.FeatConcatLast4,
		},
		BatchSizes: paperBatches, LRs: paperLRs, Epochs: []int{5},
	}
}

// FTR3 is feature transfer over one strategy with two epoch settings
// (12 models).
func FTR3() Spec {
	return Spec{
		Name:       "FTR-3",
		Approach:   FeatureTransfer,
		Strategies: []models.FeatureStrategy{models.FeatConcatLast4},
		BatchSizes: paperBatches, LRs: paperLRs, Epochs: []int{5, 10},
	}
}

// ATR is adapter training with adapters in the last {1,2,3,4} hidden
// blocks (24 models).
func ATR() Spec {
	return Spec{
		Name:              "ATR",
		Approach:          AdapterTraining,
		Depths:            []int{1, 2, 3, 4},
		MiniDepths:        []int{1, 2, 3, 4},
		AdapterBottleneck: 64,
		BatchSizes:        paperBatches, LRs: paperLRs, Epochs: []int{5},
	}
}

// FTU is ResNet fine-tuning of the last {3,6,9,12} residual blocks
// (24 models).
func FTU() Spec {
	return Spec{
		Name:       "FTU",
		Approach:   FineTuning,
		Depths:     []int{3, 6, 9, 12},
		MiniDepths: []int{1, 2, 3, 4},
		BatchSizes: paperBatches, LRs: paperLRs, Epochs: []int{5},
	}
}

// All returns the five Table 3 workloads in presentation order.
func All() []Spec {
	return []Spec{FTR1(), FTR2(), FTR3(), ATR(), FTU()}
}

// ByName looks up a workload spec.
func ByName(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workloads: unknown workload %q", name)
}

// Instance is a built workload: the candidate set Q with profiles, the
// multi-model graph, and dataset parameters.
type Instance struct {
	Spec       Spec
	Scale      Scale
	Items      []opt.WorkItem
	MM         *mmg.MultiModel
	NumClasses int
	// InputName is the dataset input node's name in each candidate model.
	InputName string
}

// Build instantiates the workload at the given scale. Mini-scale learning
// rates are the paper's grid ×100, compensating for the miniatures' far
// smaller parameter counts.
func (s Spec) Build(scale Scale, hw profile.Hardware) (*Instance, error) {
	inst := &Instance{Spec: s, Scale: scale}
	lrScale := 1.0
	if scale == Mini {
		// Miniature models tolerate far larger steps than BERT-base;
		// fine-tuned conv stacks less so than fresh transformer heads.
		lrScale = 100
		if s.Approach == FineTuning {
			lrScale = 10
		}
	}

	type variant struct {
		label string
		build func(name string, headSeed int64) (*graph.Model, error)
	}
	var variants []variant

	switch s.Approach {
	case FeatureTransfer, AdapterTraining:
		cfg := models.BERTBase()
		if scale == Mini {
			cfg = models.BERTMini()
		}
		hub := models.NewBERTHub(cfg)
		inst.NumClasses = data.NERConfig{Types: 4}.NumClasses()
		inst.InputName = "ids"
		if s.Approach == FeatureTransfer {
			for _, strat := range s.Strategies {
				strat := strat
				variants = append(variants, variant{
					label: string(strat),
					build: func(name string, seed int64) (*graph.Model, error) {
						return hub.FeatureTransferModel(name, strat, inst.NumClasses, seed)
					},
				})
			}
		} else {
			depths := s.Depths
			if scale == Mini {
				depths = s.MiniDepths
			}
			for _, d := range depths {
				d := d
				variants = append(variants, variant{
					label: fmt.Sprintf("adapt%d", d),
					build: func(name string, seed int64) (*graph.Model, error) {
						return hub.AdapterModel(name, d, s.AdapterBottleneck, inst.NumClasses, seed)
					},
				})
			}
		}
	case FineTuning:
		cfg := models.ResNet50()
		if scale == Mini {
			cfg = models.ResNetMini()
		}
		hub := models.NewResNetHub(cfg)
		inst.NumClasses = 2
		inst.InputName = "img"
		depths := s.Depths
		if scale == Mini {
			depths = s.MiniDepths
		}
		for _, d := range depths {
			d := d
			variants = append(variants, variant{
				label: fmt.Sprintf("tune%d", d),
				build: func(name string, seed int64) (*graph.Model, error) {
					return hub.FineTuneModel(name, d, inst.NumClasses, seed)
				},
			})
		}
	default:
		return nil, fmt.Errorf("workloads: unknown approach %q", s.Approach)
	}

	idx := 0
	for _, v := range variants {
		for _, bs := range s.BatchSizes {
			for _, lr := range s.LRs {
				for _, ep := range s.Epochs {
					name := fmt.Sprintf("%s/%s-b%d-lr%g-e%d", s.Name, v.label, bs, lr, ep)
					m, err := v.build(name, int64(7000+31*idx))
					if err != nil {
						return nil, fmt.Errorf("workloads: build %s: %w", name, err)
					}
					inst.Items = append(inst.Items, opt.WorkItem{
						Model: m, Epochs: ep, BatchSize: bs, LR: lr * lrScale,
					})
					idx++
				}
			}
		}
	}
	mm, err := opt.ProfileWorkload(inst.Items, hw)
	if err != nil {
		return nil, err
	}
	inst.MM = mm
	return inst, nil
}

// NewPool creates the workload's dataset pool at the instance's scale. The
// pool sizes follow the paper (10,000 CoNLL-like records, 8,000
// Malaria-like records) at paper scale.
func (inst *Instance) NewPool(seed int64) *data.Pool {
	switch inst.Spec.Approach {
	case FineTuning:
		cfg := data.MalariaLike()
		if inst.Scale == Mini {
			cfg = data.ImageConfig{Records: 600, H: 16, W: 16, C: 3, Seed: seed}
		} else {
			cfg.Seed = seed
		}
		return data.SynthImages(cfg)
	default:
		cfg := data.ConNLLLike()
		if inst.Scale == Mini {
			cfg = data.NERConfig{Records: 600, Seq: 12, Vocab: 1024, Types: 4, Seed: seed}
		} else {
			cfg.Seed = seed
		}
		return data.SynthNER(cfg)
	}
}

// CycleSchedule returns (records per cycle, train split, cycles) for the
// instance: the paper's 10 × 500 (400/100) at paper scale, a proportional
// miniature otherwise.
func (inst *Instance) CycleSchedule() (perCycle, trainPerCycle, cycles int) {
	if inst.Scale == Paper {
		return 500, 400, 10
	}
	return 60, 48, 6
}
