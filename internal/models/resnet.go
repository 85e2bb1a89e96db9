package models

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
)

// ResNetConfig describes a ResNet-style bottleneck CNN.
type ResNetConfig struct {
	InH, InW, InC int
	// StemC is the stem convolution's output channels; StemK/StemStride
	// its kernel and stride. StemPool enables the stem max-pool.
	StemC, StemK, StemStride int
	StemPool                 bool
	// StageBlocks[i] bottleneck blocks in stage i; StageMid/StageOut are
	// the per-stage bottleneck and output channel counts. Stages after the
	// first downsample spatially by 2.
	StageBlocks []int
	StageMid    []int
	StageOut    []int
	Seed        int64
}

// ResNet50 returns the paper-scale configuration: 16 bottleneck blocks in
// stages [3,4,6,3], matching ResNet-50 topology on 128×128 inputs (the
// Malaria blood-cell images, which are ~150 px crops).
func ResNet50() ResNetConfig {
	return ResNetConfig{
		InH: 128, InW: 128, InC: 3,
		StemC: 64, StemK: 7, StemStride: 2, StemPool: true,
		StageBlocks: []int{3, 4, 6, 3},
		StageMid:    []int{64, 128, 256, 512},
		StageOut:    []int{256, 512, 1024, 2048},
		Seed:        9900,
	}
}

// ResNetMini returns a CPU-trainable miniature with the same structure:
// 4 bottleneck blocks in stages [2,2] on 16×16 inputs.
func ResNetMini() ResNetConfig {
	return ResNetConfig{
		InH: 16, InW: 16, InC: 3,
		StemC: 8, StemK: 3, StemStride: 1, StemPool: false,
		StageBlocks: []int{2, 2},
		StageMid:    []int{8, 16},
		StageOut:    []int{32, 64},
		Seed:        9900,
	}
}

// ResNetHub holds the shared pre-trained layer instances of one downloaded
// ResNet checkpoint.
type ResNetHub struct {
	Cfg ResNetConfig

	stem   *layers.Conv2D
	stemBN *layers.ChannelAffine
	pool   *layers.MaxPool2D
	blocks []*layers.Composite
	// blockGeom[i] records the input geometry of block i so fresh
	// trainable copies can be instantiated.
	blockCfgs []layers.ResidualBlockConfig
}

// NewResNetHub "downloads" a pre-trained ResNet-style model.
func NewResNetHub(cfg ResNetConfig) *ResNetHub {
	h := &ResNetHub{Cfg: cfg}
	h.stem = layers.NewConv2D(cfg.InC, cfg.StemC, cfg.StemK, cfg.StemStride, cfg.StemK/2, layers.ActReLU, cfg.Seed+1)
	h.stemBN = layers.NewChannelAffine(cfg.StemC, cfg.Seed+2)
	if cfg.StemPool {
		h.pool = layers.NewMaxPool2D(3, 2, 1)
	}

	hh := (cfg.InH+2*(cfg.StemK/2)-cfg.StemK)/cfg.StemStride + 1
	ww := (cfg.InW+2*(cfg.StemK/2)-cfg.StemK)/cfg.StemStride + 1
	if cfg.StemPool {
		hh = (hh+2*1-3)/2 + 1
		ww = (ww+2*1-3)/2 + 1
	}
	inC := cfg.StemC
	bi := 0
	for s := range cfg.StageBlocks {
		for b := 0; b < cfg.StageBlocks[s]; b++ {
			stride := 1
			if b == 0 && s > 0 {
				stride = 2
			}
			bc := layers.ResidualBlockConfig{
				InH: hh, InW: ww, InC: inC,
				MidC: cfg.StageMid[s], OutC: cfg.StageOut[s],
				Stride: stride, Seed: cfg.Seed + 1000*int64(bi+1),
			}
			h.blockCfgs = append(h.blockCfgs, bc)
			h.blocks = append(h.blocks, layers.NewResidualBlock(bc))
			if stride == 2 {
				hh = (hh-1)/2 + 1
				ww = (ww-1)/2 + 1
			}
			inC = cfg.StageOut[s]
			bi++
		}
	}
	return h
}

// OutChannels returns the channel count of the final block's output.
func (h *ResNetHub) OutChannels() int {
	return h.Cfg.StageOut[len(h.Cfg.StageOut)-1]
}

// FineTuneModel builds a fine-tuning candidate (workload FTU): the stem
// and the bottom residual blocks stay frozen (shared instances), the top
// tuneTop blocks are fresh trainable copies, and a global-average-pool +
// softmax classification head is added.
func (h *ResNetHub) FineTuneModel(name string, tuneTop, numClasses int, headSeed int64) (*graph.Model, error) {
	total := len(h.blocks)
	if tuneTop < 0 || tuneTop > total {
		return nil, fmt.Errorf("models: tuneTop %d out of range [0,%d]", tuneTop, total)
	}
	m := graph.NewModel(name)
	img := m.AddInput("img", h.Cfg.InH, h.Cfg.InW, h.Cfg.InC)
	stem := m.AddNode("stem", h.stem, img)
	prev := m.AddNode("stem_bn", h.stemBN, stem)
	if h.pool != nil {
		prev = m.AddNode("stem_pool", h.pool, prev)
	}
	frozen := total - tuneTop
	for i := 0; i < total; i++ {
		var blk *layers.Composite
		if i < frozen {
			blk = h.blocks[i]
		} else {
			blk = layers.NewResidualBlock(h.blockCfgs[i])
		}
		n := m.AddNode(fmt.Sprintf("block_%d", i+1), blk, prev)
		n.Trainable = i >= frozen
		prev = n
	}
	gap := m.AddNode("gap", layers.NewGlobalAvgPool2D(), prev)
	cls := m.AddNode("classifier", layers.NewDense(h.OutChannels(), numClasses, layers.ActNone, headSeed+7), gap)
	cls.Trainable = true
	m.SetOutputs(cls)
	return m, nil
}
