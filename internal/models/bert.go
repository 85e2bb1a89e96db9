// Package models is the repository's stand-in for a pre-trained model hub:
// it builds BERT-style transformer encoders and ResNet-style CNNs with
// deterministically seeded "pre-trained" weights, and adapts them for
// target tasks using the three transfer-learning schemes the paper
// formalizes (Section 2.4): feature transfer, fine-tuning, and adapter
// training.
//
// Frozen trunk layers are shared instances across all candidate models
// built from one hub, mirroring how practitioners load a single checkpoint;
// trainable copies are freshly instantiated per candidate so their weights
// can diverge.
package models

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
)

// BERTConfig describes a BERT-style encoder.
type BERTConfig struct {
	Vocab, Seq, Dim, Heads, FFN, Blocks int
	Seed                                int64
}

// BERTBase returns the paper-scale configuration matching BERT-base
// (110M parameters): 12 blocks, hidden 768, 12 heads, FFN 3072. Sequence
// length 128 is the standard NER fine-tuning bucket CoNLL sentences pad
// into.
func BERTBase() BERTConfig {
	return BERTConfig{Vocab: 30522, Seq: 128, Dim: 768, Heads: 12, FFN: 3072, Blocks: 12, Seed: 8800}
}

// BERTMini returns a CPU-trainable miniature with the same topology (real
// training in tests, examples, and mini-scale experiments).
func BERTMini() BERTConfig {
	return BERTConfig{Vocab: 1024, Seq: 12, Dim: 32, Heads: 2, FFN: 64, Blocks: 4, Seed: 8800}
}

// FeatureStrategy selects which pre-trained activations feed the new head
// in feature transfer, following Devlin et al.'s CoNLL ablation (the six
// strategies of workload FTR-1).
type FeatureStrategy string

// The six feature-transfer strategies of Table 3.
const (
	FeatEmbedding        FeatureStrategy = "embedding"
	FeatSecondLastHidden FeatureStrategy = "second_last_hidden"
	FeatLastHidden       FeatureStrategy = "last_hidden"
	FeatSumLast4         FeatureStrategy = "sum_last_4"
	FeatConcatLast4      FeatureStrategy = "concat_last_4"
	FeatSumAll           FeatureStrategy = "sum_all"
)

// BERTHub holds the shared pre-trained layer instances of one downloaded
// checkpoint.
type BERTHub struct {
	Cfg BERTConfig

	emb    *layers.Embedding
	pos    *layers.PositionalEmbedding
	lnEmb  *layers.LayerNorm
	blocks []*layers.Composite
}

// NewBERTHub "downloads" a pre-trained BERT-style model: all layer weights
// derive deterministically from Cfg.Seed. The embedding table carries
// planted semantic-cluster structure, simulating the token-similarity
// geometry real pre-training produces (without it, transfer from random
// weights cannot generalize to unseen tokens).
func NewBERTHub(cfg BERTConfig) *BERTHub {
	h := &BERTHub{Cfg: cfg}
	clusters := cfg.Vocab / 16 // 16-token clusters align with the synthetic corpus's tag bands
	h.emb = layers.NewClusteredEmbedding(cfg.Vocab, cfg.Dim, clusters, cfg.Seed+1)
	h.pos = layers.NewPositionalEmbedding(cfg.Seq, cfg.Dim, cfg.Seed+2)
	h.lnEmb = layers.NewLayerNorm(cfg.Dim)
	for i := 0; i < cfg.Blocks; i++ {
		h.blocks = append(h.blocks, h.freshBlock(i, 0, 0))
	}
	return h
}

// blockSeed derives the deterministic seed of pre-trained block i.
func (h *BERTHub) blockSeed(i int) int64 { return h.Cfg.Seed + 1000*int64(i+1) }

// freshBlock instantiates block i anew (identical pre-trained weights by
// seed), optionally with adapters.
func (h *BERTHub) freshBlock(i, adapter int, adapterSeed int64) *layers.Composite {
	return layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: h.Cfg.Seq, Dim: h.Cfg.Dim, Heads: h.Cfg.Heads, FFN: h.Cfg.FFN,
		Seed: h.blockSeed(i), Adapter: adapter, AdapterSeed: adapterSeed,
	})
}

// addTrunk appends the shared frozen embedding stack and the first
// `frozenBlocks` shared frozen encoder blocks to m, returning the embedding
// output node and the per-block output nodes added so far.
func (h *BERTHub) addTrunk(m *graph.Model, frozenBlocks int) (embOut *graph.Node, blockOuts []*graph.Node) {
	ids := m.AddInput("ids", h.Cfg.Seq)
	e := m.AddNode("emb", h.emb, ids)
	p := m.AddNode("pos", h.pos, e)
	embOut = m.AddNode("ln_emb", h.lnEmb, p)
	prev := embOut
	for i := 0; i < frozenBlocks; i++ {
		prev = m.AddNode(fmt.Sprintf("block_%d", i+1), h.blocks[i], prev)
		blockOuts = append(blockOuts, prev)
	}
	return embOut, blockOuts
}

// FeatureTransferModel builds a feature-transfer candidate: the entire
// pre-trained trunk frozen, features extracted per strategy, then a fresh
// trainable transformer block and a per-token softmax classification head
// (paper Section 5, FTR-* workloads).
func (h *BERTHub) FeatureTransferModel(name string, strat FeatureStrategy, numClasses int, headSeed int64) (*graph.Model, error) {
	m := graph.NewModel(name)
	embOut, blockOuts := h.addTrunk(m, h.Cfg.Blocks)
	dim := h.Cfg.Dim
	nb := len(blockOuts)

	var feat *graph.Node
	featDim := dim
	switch strat {
	case FeatEmbedding:
		feat = embOut
	case FeatSecondLastHidden:
		feat = blockOuts[nb-2]
	case FeatLastHidden:
		feat = blockOuts[nb-1]
	case FeatSumLast4:
		feat = m.AddNode("feat_sum4", layers.NewAdd(4),
			blockOuts[nb-4], blockOuts[nb-3], blockOuts[nb-2], blockOuts[nb-1])
	case FeatConcatLast4:
		feat = m.AddNode("feat_cat4", layers.NewConcat(4),
			blockOuts[nb-4], blockOuts[nb-3], blockOuts[nb-2], blockOuts[nb-1])
		featDim = 4 * dim
	case FeatSumAll:
		all := make([]*graph.Node, 0, nb+1)
		all = append(all, embOut)
		all = append(all, blockOuts...)
		feat = m.AddNode("feat_sum_all", layers.NewAdd(len(all)), all...)
	default:
		return nil, fmt.Errorf("models: unknown feature strategy %q", strat)
	}

	// Combined features wider than the hidden size are first projected
	// back to it, so the new transformer layer keeps standard dimensions
	// regardless of the extraction strategy.
	if featDim != dim {
		proj := m.AddNode("head_proj", layers.NewDense(featDim, dim, layers.ActNone, headSeed+3), feat)
		proj.Trainable = true
		feat = proj
	}
	head := m.AddNode("head_block", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: h.Cfg.Seq, Dim: dim, Heads: h.Cfg.Heads, FFN: h.Cfg.FFN, Seed: headSeed,
	}), feat)
	head.Trainable = true
	cls := m.AddNode("classifier", layers.NewDense(dim, numClasses, layers.ActNone, headSeed+7), head)
	cls.Trainable = true
	m.SetOutputs(cls)
	return m, nil
}

// AdapterModel builds an adapter-training candidate (Houlsby adapters in
// the top adaptTop blocks, workload ATR): adapted blocks are fresh
// instances whose base weights stay frozen and whose adapters train, lower
// blocks are shared frozen instances.
func (h *BERTHub) AdapterModel(name string, adaptTop, bottleneck, numClasses int, headSeed int64) (*graph.Model, error) {
	if adaptTop < 1 || adaptTop > h.Cfg.Blocks {
		return nil, fmt.Errorf("models: adaptTop %d out of range [1,%d]", adaptTop, h.Cfg.Blocks)
	}
	m := graph.NewModel(name)
	frozen := h.Cfg.Blocks - adaptTop
	_, blockOuts := h.addTrunk(m, frozen)
	prev := m.Node("ln_emb")
	if len(blockOuts) > 0 {
		prev = blockOuts[len(blockOuts)-1]
	}
	for i := frozen; i < h.Cfg.Blocks; i++ {
		n := m.AddNode(fmt.Sprintf("block_%d", i+1),
			h.freshBlock(i, bottleneck, headSeed+10*int64(i)), prev)
		n.Trainable = true // only the adapters inside actually train
		prev = n
	}
	cls := m.AddNode("classifier", layers.NewDense(h.Cfg.Dim, numClasses, layers.ActNone, headSeed+7), prev)
	cls.Trainable = true
	m.SetOutputs(cls)
	return m, nil
}
