package graph_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/profile"
	"nautilus/internal/tensor"
	"nautilus/internal/workloads"
)

// TestTrainingRuleAgrees holds five readers of what a model trains to one
// answer: Model.TrainableParams, Model.ParamCount, Summary's total, the
// profile's Trainable parameter entries, and the parameters one compiled
// train step gives a gradient. The models are every workload's mini
// candidates, a layer shared by a frozen node and a later trainable one,
// and transformer, adapter and residual blocks under a trainable and under
// a frozen node.
func TestTrainingRuleAgrees(t *testing.T) {
	hw := profile.DefaultHardware()
	var ms []*graph.Model
	for _, s := range workloads.All() {
		inst, err := s.Build(workloads.Mini, hw)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, it := range inst.Items {
			ms = append(ms, it.Model)
		}
	}

	shared := graph.NewModel("shared_layer")
	dense := layers.NewDense(4, 4, layers.ActNone, 1)
	first := shared.AddNode("frozen_use", dense, shared.AddInput("x", 4))
	last := shared.AddNode("trainable_use", dense, first)
	last.Trainable = true
	shared.SetOutputs(last)
	ms = append(ms, shared)

	for _, trains := range []bool{true, false} {
		for _, blk := range []*layers.Composite{
			layers.NewTransformerBlock(layers.TransformerBlockConfig{Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 2}),
			layers.NewTransformerBlock(layers.TransformerBlockConfig{Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 2, Adapter: 2, AdapterSeed: 3}),
			layers.NewResidualBlock(layers.ResidualBlockConfig{InH: 4, InW: 4, InC: 3, MidC: 2, OutC: 6, Stride: 2, Seed: 4}),
		} {
			in := blk.Inner().Inputs()[0].Layer.(*graph.InputLayer).Shape
			out := blk.OutShape([][]int{in})
			m := graph.NewModel(fmt.Sprintf("%s_trainable_%v", blk.Type(), trains))
			b := m.AddNode("block", blk, m.AddInput("x", in...))
			b.Trainable = trains
			head := m.AddNode("head", layers.NewDense(out[len(out)-1], 2, layers.ActNone, 5), b)
			head.Trainable = true
			m.SetOutputs(head)
			ms = append(ms, m)
		}
	}

	for _, m := range ms {
		want := m.TrainableParams()
		var elems int64
		for _, p := range want {
			elems += int64(p.NumElems())
		}
		if _, trainable := m.ParamCount(); trainable != elems {
			t.Errorf("%s: ParamCount trainable %d, TrainableParams %d elements", m.Name, trainable, elems)
		}
		if got := summaryTrainable(t, m); got != elems {
			t.Errorf("%s: Summary trainable %d, TrainableParams %d elements", m.Name, got, elems)
		}
		prof, err := profile.Profile(m, hw)
		if err != nil {
			t.Fatal(err)
		}
		var profiled []*graph.Param
		for id := range prof.NumParams() {
			if q := prof.Param(int32(id)); q.Trainable {
				profiled = append(profiled, q.Param)
			}
		}
		sameParams(t, m.Name+": profile's Trainable entries", profiled, want)
		sameParams(t, m.Name+": params a train step gives a gradient", stepGradients(t, m), want)
	}
}

// summaryTrainable reads the trainable count off Summary's totals line.
func summaryTrainable(t *testing.T, m *graph.Model) int64 {
	t.Helper()
	s := m.Summary()
	_, tail, ok := strings.Cut(s, "trainable: ")
	var n int64
	if _, err := fmt.Sscan(tail, &n); !ok || err != nil {
		t.Fatalf("%s: no trainable total in the summary:\n%s", m.Name, s)
	}
	return n
}

// stepGradients runs one compiled train step of m on a zero batch of one
// record (token id 0 for a sequence input) and returns the parameters it
// gave a gradient.
func stepGradients(t *testing.T, m *graph.Model) []*graph.Param {
	t.Helper()
	prog := graph.Compile(m)
	var feeds []*tensor.Tensor
	for _, in := range prog.Inputs() {
		feeds = append(feeds, tensor.New(append([]int{1}, in.Layer.(*graph.InputLayer).Shape...)...))
	}
	tape := prog.Run(feeds, graph.ForwardOptions{Train: true})
	var grads []*tensor.Tensor
	for _, o := range m.Outputs {
		g := tensor.New(tape.Output(o).Shape()...)
		g.Fill(1)
		grads = append(grads, g)
	}
	if err := tape.BackwardOutputs(grads); err != nil {
		t.Fatal(err)
	}
	var got []*graph.Param
	for k, p := range prog.Params() {
		if tape.ParamGradAt(k) != nil {
			got = append(got, p)
		}
	}
	return got
}

func sameParams(t *testing.T, label string, got, want []*graph.Param) {
	t.Helper()
	missing, extra := 0, 0
	for _, p := range want {
		if !slices.Contains(got, p) {
			missing++
		}
	}
	for _, p := range got {
		if !slices.Contains(want, p) {
			extra++
		}
	}
	if missing+extra > 0 {
		t.Errorf("%s: %d of TrainableParams' %d missing, %d extra", label, missing, len(want), extra)
	}
}
