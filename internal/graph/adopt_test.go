package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

// gradShape is a test layer whose backward returns its input gradients in
// one of the shapes the tape must not keep as they are: the output
// gradient to every parent ("grad_out"), one fresh tensor to every parent
// ("fresh_shared"), a view of the output gradient ("grad_out_view"), or
// the input itself ("input"). Its forward is the sum of its inputs into a
// fresh tensor.
type gradShape struct{ kind string }

func (l gradShape) Type() string                    { return "grad_shape" }
func (l gradShape) Config() map[string]any          { return map[string]any{"kind": l.kind} }
func (l gradShape) Params() []*graph.Param          { return nil }
func (l gradShape) OutShape(in [][]int) []int       { return append([]int(nil), in[0]...) }
func (l gradShape) FLOPsPerRecord(in [][]int) int64 { return int64(len(in) * tensor.NumElems(in[0])) }

func (l gradShape) Forward(inputs []*tensor.Tensor, train bool) (*tensor.Tensor, any) {
	out := tensor.NewFrom(inputs[0], inputs[0].Shape()...)
	for _, x := range inputs {
		tensor.AddInPlace(out, x)
	}
	return out, nil
}

func (l gradShape) Backward(cache any, inputs []*tensor.Tensor, out, gradOut *tensor.Tensor, need graph.BackwardNeed) ([]*tensor.Tensor, []*tensor.Tensor) {
	switch l.kind {
	case "grad_out":
		return []*tensor.Tensor{gradOut, gradOut}, nil
	case "fresh_shared":
		d := gradOut.Clone()
		return []*tensor.Tensor{d, d}, nil
	case "grad_out_view":
		return []*tensor.Tensor{gradOut.Reshape(inputs[0].Shape()...)}, nil
	default: // "input": not a gradient, but a tensor the tape frees at its last use
		return []*tensor.Tensor{inputs[0]}, nil
	}
}

// adoptionModel builds a trainable model around one gradShape node over
// ReLU dense parents: a and b for the two-parent kinds, a for the others.
// The last parent also feeds a dense sibling c, which joins the gradShape
// node's output through an Add. c comes first in node order, so its
// backward runs after the gradShape node's: it allocates, reads the
// parent's output and accumulates into the parent's gradient while the
// gradShape node's gradients wait for their parents' backward steps.
func adoptionModel(kind string) *graph.Model {
	m := graph.NewModel(kind)
	in := m.AddInput("in", 16)
	parents := []*graph.Node{m.AddNode("a", layers.NewDense(16, 16, layers.ActReLU, 1), in)}
	if kind == "grad_out" || kind == "fresh_shared" {
		parents = append(parents, m.AddNode("b", layers.NewDense(16, 16, layers.ActReLU, 2), in))
	}
	c := m.AddNode("c", layers.NewDense(16, 16, layers.ActNone, 3), parents[len(parents)-1])
	shape := m.AddNode("shape", gradShape{kind}, parents...)
	join := m.AddNode("join", layers.NewAdd(2), c, shape)
	head := m.AddNode("head", layers.NewDense(16, 16, layers.ActNone, 4), join)
	for _, n := range m.Nodes() {
		n.Trainable = !n.IsInput()
	}
	m.SetOutputs(head)
	return m
}

// TestTapeAdoptsOnlyFreshGradients: in a step scope the tape keeps a
// layer's fresh gradient as the accumulator it starts instead of copying
// it, so a gradient it may not keep shows as a buffer freed, reused or
// written through while another reader still holds it. Every tensor here
// is one size class, so the next Get after a wrong Free takes the freed
// buffer back. Each of the four kinds must give every parameter
// gradient the bits of the heap run, which copies every first gradient.
func TestTapeAdoptsOnlyFreshGradients(t *testing.T) {
	const batch = 4
	for _, kind := range []string{"grad_out", "fresh_shared", "grad_out_view", "input"} {
		t.Run(kind, func(t *testing.T) {
			prog := graph.Compile(adoptionModel(kind))
			var heap []*tensor.Tensor
			for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
				scope := arena.Scope()
				rng := rand.New(rand.NewSource(5))
				feeds := []*tensor.Tensor{tensor.RandNormal(rng, 1, batch, 16)}
				tape := prog.Run(feeds, graph.ForwardOptions{Train: true, Alloc: scope})
				g := tensor.RandNormal(rng, 1, batch, 16)
				if err := tape.BackwardOutputs([]*tensor.Tensor{g}); err != nil {
					t.Fatal(err)
				}
				for k := range prog.Params() {
					got := tape.ParamGradAt(k)
					if scope == nil {
						heap = append(heap, got.Clone())
						continue
					}
					for i, v := range got.Data() {
						if w := heap[k].Data()[i]; math.Float32bits(v) != math.Float32bits(w) {
							t.Fatalf("%s: parameter %d's gradient[%d] = %v in a step scope, %v on the heap", kind, k, i, v, w)
						}
					}
				}
				scope.Release()
			}
			if len(heap) == 0 {
				t.Fatalf("%s: no parameter gradients", kind)
			}
		})
	}
}
