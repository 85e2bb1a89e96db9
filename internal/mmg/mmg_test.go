package mmg

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/models"
	"nautilus/internal/profile"
	"nautilus/internal/tensor"
)

// twoHeads builds two models sharing a frozen 2-layer trunk with different
// trainable heads.
func twoHeads() (*graph.Model, *graph.Model) {
	build := func(name string, headSeed int64) *graph.Model {
		m := graph.NewModel(name)
		in := m.AddInput("in", 4)
		d1 := m.AddNode("d1", layers.NewDense(4, 8, layers.ActTanh, 100), in)
		d2 := m.AddNode("d2", layers.NewDense(8, 8, layers.ActTanh, 200), d1)
		h := m.AddNode("h", layers.NewDense(8, 2, layers.ActNone, headSeed), d2)
		h.Trainable = true
		m.SetOutputs(h)
		return m
	}
	return build("a", 1), build("b", 2)
}

func TestBuildMergesSharedTrunk(t *testing.T) {
	a, b := twoHeads()
	mm, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// in, d1, d2 merge; two heads stay separate: 3 + 2 = 5 nodes.
	if got := mm.Graph.NumNodes(); got != 5 {
		t.Errorf("merged nodes = %d, want 5", got)
	}
	if len(mm.Graph.Outputs) != 2 {
		t.Errorf("merged outputs = %d, want 2", len(mm.Graph.Outputs))
	}
	// Both models map d2 to the same merged node.
	if mm.NodeOf(a, a.Node("d2")) != mm.NodeOf(b, b.Node("d2")) {
		t.Error("shared trunk not merged")
	}
	if mm.SharedCount(mm.NodeOf(a, a.Node("d2"))) != 2 {
		t.Error("shared count wrong")
	}
	// Heads map to different nodes.
	if mm.NodeOf(a, a.Node("h")) == mm.NodeOf(b, b.Node("h")) {
		t.Error("distinct heads wrongly merged")
	}
}

func TestBuildDivergentTrunksDoNotMerge(t *testing.T) {
	a, _ := twoHeads()
	// c has a different frozen trunk (different seed).
	c := graph.NewModel("c")
	in := c.AddInput("in", 4)
	d1 := c.AddNode("d1", layers.NewDense(4, 8, layers.ActTanh, 999), in)
	d2 := c.AddNode("d2", layers.NewDense(8, 8, layers.ActTanh, 200), d1)
	h := c.AddNode("h", layers.NewDense(8, 2, layers.ActNone, 3), d2)
	h.Trainable = true
	c.SetOutputs(h)

	mm, err := Build(a, c)
	if err != nil {
		t.Fatal(err)
	}
	// Only the input merges: in + (d1,d2,h)×2 = 7.
	if got := mm.Graph.NumNodes(); got != 7 {
		t.Errorf("merged nodes = %d, want 7", got)
	}
	// d2 has identical config+seed in both but different parents
	// (expression signatures differ), so it must NOT merge.
	if mm.NodeOf(a, a.Node("d2")) == mm.NodeOf(c, c.Node("d2")) {
		t.Error("d2 merged despite divergent ancestry")
	}
}

func TestMergedGraphExecutionMatchesSources(t *testing.T) {
	// Forward through the merged graph must reproduce each source model's
	// outputs exactly — merging is purely structural.
	a, b := twoHeads()
	mm, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 1, 3, 4)

	ta, _ := a.Forward(map[string]*tensor.Tensor{"in": x}, false)
	tb, _ := b.Forward(map[string]*tensor.Tensor{"in": x}, false)

	inName := mm.NodeOf(a, a.Node("in")).Name
	tm, err := mm.Graph.Forward(map[string]*tensor.Tensor{inName: x}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Output(mm.NodeOf(a, a.Outputs[0])).AllClose(ta.Output(a.Outputs[0]), 1e-6) {
		t.Error("merged graph diverges from model a")
	}
	if !tm.Output(mm.NodeOf(b, b.Outputs[0])).AllClose(tb.Output(b.Outputs[0]), 1e-6) {
		t.Error("merged graph diverges from model b")
	}
}

func TestMaterializableNodesExcludeInputsAndHeads(t *testing.T) {
	a, b := twoHeads()
	mm, err := Build(a, b)
	if err != nil {
		t.Fatal(err)
	}
	mat := mm.MaterializableNodes()
	if len(mat) != 2 { // merged d1, d2
		t.Fatalf("materializable = %d nodes, want 2", len(mat))
	}
	for _, n := range mat {
		if n.IsInput() || n.Trainable {
			t.Errorf("node %q should not be a candidate", n.Name)
		}
	}
}

func TestBuildBERTWorkloadScale(t *testing.T) {
	// Six FTR-1 strategies over a mini hub: the trunk (emb, pos, ln,
	// 4 blocks, feature-combination nodes) merges across all six models.
	h := models.NewBERTHub(models.BERTMini())
	var ms []*graph.Model
	for i, strat := range []models.FeatureStrategy{
		models.FeatEmbedding, models.FeatSecondLastHidden, models.FeatLastHidden,
		models.FeatSumLast4, models.FeatConcatLast4, models.FeatSumAll,
	} {
		m, err := h.FeatureTransferModel(fmt.Sprintf("m%d", i), strat, 9, int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	mm, err := Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	// Each model alone has 8 trunk nodes (ids,emb,pos,ln,4 blocks) plus
	// strategy/head nodes. Merged: trunk counted once.
	perModel := 0
	for _, m := range ms {
		perModel += m.NumNodes()
	}
	if mm.Graph.NumNodes() >= perModel {
		t.Errorf("merging saved nothing: %d vs %d", mm.Graph.NumNodes(), perModel)
	}
	// The shared trunk is 8 nodes; six models have 6 outputs.
	if len(mm.Graph.Outputs) != 6 {
		t.Errorf("outputs = %d, want 6", len(mm.Graph.Outputs))
	}
	// Feature-combination nodes (sum4, cat4, sum_all) are materializable
	// and must appear in the candidate set.
	names := map[string]bool{}
	for _, n := range mm.MaterializableNodes() {
		names[n.Name] = true
	}
	if len(names) < 7 { // emb-ln + 4 blocks + combination nodes
		t.Errorf("only %d materializable candidates", len(names))
	}
}

func TestBuildEmptyErrors(t *testing.T) {
	if _, err := Build(); err == nil {
		t.Error("empty Build should error")
	}
}

func TestBuildSingleModelIsIdentity(t *testing.T) {
	a, _ := twoHeads()
	mm, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	if mm.Graph.NumNodes() != a.NumNodes() {
		t.Errorf("single-model merge changed node count: %d vs %d", mm.Graph.NumNodes(), a.NumNodes())
	}
}

func profiled(t *testing.T, ms ...*graph.Model) []*profile.ModelProfile {
	t.Helper()
	profs := make([]*profile.ModelProfile, len(ms))
	for i, m := range ms {
		p, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	return profs
}

// TestBuildProfiledDerivesTheMergedProfile spot-checks the derivation on the
// two-heads pair (internal/verify's differential test is the field-by-field
// oracle over whole workloads): same merge as Build, one LayerProfile per
// merged node copied from its first source, c_load from the first profile's
// hardware.
func TestBuildProfiledDerivesTheMergedProfile(t *testing.T) {
	a, b := twoHeads()
	profs := profiled(t, a, b)
	profs[1].HW.DiskThroughput /= 2 // the group's HW is the first member's
	mm, prof, err := BuildProfiled(profs...)
	if err != nil {
		t.Fatal(err)
	}
	if got := mm.Graph.NumNodes(); got != 5 {
		t.Fatalf("merged nodes = %d, want 5", got)
	}
	if prof.Model != mm.Graph || len(prof.Layers) != 5 {
		t.Fatalf("derived profile covers %d layers of %q, want 5 of the merged graph", len(prof.Layers), prof.Model.Name)
	}
	for _, src := range []struct {
		p *profile.ModelProfile
		n string
	}{{profs[0], "d2"}, {profs[0], "h"}, {profs[1], "h"}} {
		sn := src.p.Model.Node(src.n)
		n := mm.NodeOf(src.p.Model, sn)
		got, want := prof.Layer(n), src.p.Layer(sn)
		if got.Node != n || got.CompFLOPs != want.CompFLOPs || got.MemBytes != want.MemBytes || got.Materializable != want.Materializable {
			t.Errorf("%s/%s: derived %+v, source %+v", src.p.Model.Name, src.n, got, want)
		}
		if got.LoadFLOPs != profs[0].HW.LoadFLOPs(want.OutBytes) {
			t.Errorf("%s/%s: c_load %d not from the first member's hardware", src.p.Model.Name, src.n, got.LoadFLOPs)
		}
		if prof.Sig(n) != src.p.Sig(sn) {
			t.Errorf("%s/%s: signature changed by merging", src.p.Model.Name, src.n)
		}
	}
}

// TestBuildProfiledParameterTable: the derived profile's parameter table and
// per-layer parameter ids are those profile.Profile computes for the merged
// graph — every parameter once, in first-use order — whether the members
// share parameters (the trunk; one head's layer reused by a third model) or
// the first member is itself a derived profile.
func TestBuildProfiledParameterTable(t *testing.T) {
	a, b := twoHeads()
	c := graph.NewModel("c") // trains its own trunk layer, then applies b's head layer frozen
	in := c.AddInput("in", 4)
	own := c.AddNode("own", layers.NewDense(4, 8, layers.ActTanh, 300), in)
	own.Trainable = true
	c.SetOutputs(c.AddNode("h", b.Node("h").Layer, own))
	profs := profiled(t, a, b, c)

	check := func(label string, profs ...*profile.ModelProfile) *profile.ModelProfile {
		t.Helper()
		mm, got, err := BuildProfiled(profs...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := profile.Profile(mm.Graph, profs[0].HW)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumParams() != want.NumParams() {
			t.Fatalf("%s: %d parameters, want %d", label, got.NumParams(), want.NumParams())
		}
		for id := int32(0); int(id) < want.NumParams(); id++ {
			if *got.Param(id) != *want.Param(id) {
				t.Errorf("%s: parameter %d is %+v, want %+v", label, id, *got.Param(id), *want.Param(id))
			}
		}
		for i := range want.Layers {
			if !reflect.DeepEqual(got.Layers[i].Params, want.Layers[i].Params) {
				t.Errorf("%s: node %q holds parameters %v, want %v", label, want.Layers[i].Node.Name, got.Layers[i].Params, want.Layers[i].Params)
			}
		}
		return got
	}
	check("a+b+c", profs...)
	ab := check("a+b", profs[0], profs[1])
	abc := check("(a+b)+c", ab, profs[2])
	if n := abc.NumParams(); n != 10 { // d1, d2, two heads, c's own layer: w and b each; b's head counted once
		t.Errorf("(a+b)+c holds %d parameters, want 10", n)
	}
	check("a", profs[0])
}

func TestBuildProfiledRejectsBadProfiles(t *testing.T) {
	a, b := twoHeads()
	profs := profiled(t, a, b)
	if _, _, err := BuildProfiled(profs[0], nil); err == nil {
		t.Error("nil profile should error")
	}
	if _, _, err := BuildProfiled(); err == nil {
		t.Error("empty BuildProfiled should error")
	}
	// A profile that predates a node of its model has no facts for it.
	extra := b.AddNode("h2", layers.NewDense(8, 2, layers.ActNone, 9), b.Node("d2"))
	b.SetOutputs(b.Node("h"), extra)
	if _, _, err := BuildProfiled(profs...); err == nil {
		t.Error("profile missing a node of its model should error")
	}
}

// TestBuildSameNamedModelsErrorsNotPanics: two same-named models merge (the
// second's per-model copies are disambiguated); a third used to panic inside
// graph.AddNode on the duplicate node name.
func TestBuildSameNamedModelsErrorsNotPanics(t *testing.T) {
	a, _ := twoHeads()
	b, _ := twoHeads()
	c, _ := twoHeads()
	if _, err := Build(a, b); err != nil {
		t.Fatalf("two same-named models: %v", err)
	}
	if _, err := Build(a, b, c); err == nil {
		t.Error("three same-named models should error")
	}
}
