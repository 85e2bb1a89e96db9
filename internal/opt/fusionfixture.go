package opt

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/profile"
)

// GreedyTrapWorkload builds a four-model workload on which Algorithm 1 is
// provably suboptimal, together with a memory budget that exposes the
// trap. It backs the test that the partition-search oracle beats
// Algorithm 1 on it and the trap.fixture golden plan.
//
// The construction: four models A..D over one shared input, with three
// frozen trunk blocks shared pairwise — P (the widest) by {A,B}, Q by
// {A,C}, R by {B,D} — plus a private frozen "ballast" block per model so
// peak memory grows with member count. The returned budget sits between
// the largest two-model peak and the smallest three-model peak, so
// exactly the pairs are fusible. Greedy grabs the single best pair {A,B}
// (sharing P) and thereby strands C and D, which share nothing; the
// optimal partition {A,C} + {B,D} shares Q and R, and cost(Q) + cost(R) >
// cost(P), so enumeration beats greedy strictly.
func GreedyTrapWorkload() (items []WorkItem, memBudget int64, err error) {
	hw := profile.Hardware{
		FLOPSThroughput: 6e12,
		DiskThroughput:  6e10,
		WorkspaceBytes:  1 << 28,
	}
	// Shared frozen trunks: P is wider (costlier) than Q and R, but
	// narrower than Q+R combined.
	trunkP := layers.NewDense(64, 200, layers.ActTanh, 101)
	trunkQ := layers.NewDense(64, 150, layers.ActTanh, 102)
	trunkR := layers.NewDense(64, 150, layers.ActTanh, 103)

	build := func(name string, headSeed int64, trunks ...*layers.Dense) (WorkItem, error) {
		m := graph.NewModel(name)
		in := m.AddInput("in", 64)
		width := 600
		parts := make([]*graph.Node, 0, len(trunks)+1)
		for i, tr := range trunks {
			parts = append(parts, m.AddNode(fmt.Sprintf("trunk%d", i), tr, in))
			width += 150
			if tr == trunkP {
				width += 50
			}
		}
		// Private ballast: distinct layer instances never merge, so each
		// member adds its full parameter + activation footprint and member
		// count dominates a candidate group's peak memory.
		parts = append(parts, m.AddNode("ballast", layers.NewDense(64, 600, layers.ActTanh, headSeed+500), in))
		cat := m.AddNode("cat", layers.NewConcat(len(parts)), parts...)
		h := m.AddNode("h", layers.NewDense(width, 2, layers.ActNone, headSeed), cat)
		h.Trainable = true
		m.SetOutputs(h)
		prof, err := profile.Profile(m, hw)
		if err != nil {
			return WorkItem{}, err
		}
		return WorkItem{Model: m, Prof: prof, Epochs: 1, BatchSize: 8, LR: 1e-3}, nil
	}

	specs := []struct {
		name   string
		seed   int64
		trunks []*layers.Dense
	}{
		{"trapA", 301, []*layers.Dense{trunkP, trunkQ}},
		{"trapB", 302, []*layers.Dense{trunkP, trunkR}},
		{"trapC", 303, []*layers.Dense{trunkQ}},
		{"trapD", 304, []*layers.Dense{trunkR}},
	}
	for _, s := range specs {
		it, err := build(s.name, s.seed, s.trunks...)
		if err != nil {
			return nil, 0, err
		}
		items = append(items, it)
	}

	// Compute the separating budget empirically: every pair must fit,
	// no triple may.
	var maxPair, minTriple int64
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			g, err := BuildGroup([]WorkItem{items[i], items[j]}, nil, ReusePlan, AdamSlotBytes)
			if err != nil {
				return nil, 0, err
			}
			if g.PeakMemBytes > maxPair {
				maxPair = g.PeakMemBytes
			}
			for k := j + 1; k < len(items); k++ {
				t, err := BuildGroup([]WorkItem{items[i], items[j], items[k]}, nil, ReusePlan, AdamSlotBytes)
				if err != nil {
					return nil, 0, err
				}
				if minTriple == 0 || t.PeakMemBytes < minTriple {
					minTriple = t.PeakMemBytes
				}
			}
		}
	}
	if maxPair >= minTriple {
		return nil, 0, fmt.Errorf("opt: trap fixture not memory-separated: max pair peak %d >= min triple peak %d", maxPair, minTriple)
	}
	return items, maxPair + (minTriple-maxPair)/2, nil
}
