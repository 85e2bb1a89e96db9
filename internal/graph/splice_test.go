package graph_test

import (
	"math/rand"
	"strings"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

// frozenBlocks returns x → n frozen residual blocks → trainable head, and
// the last block. The blocks widen their four channels to 32 inside.
func frozenBlocks(n int) (*graph.Model, *layers.Composite) {
	m := graph.NewModel("frozen_blocks")
	prev := m.AddInput("x", 8, 8, 4)
	var blk *layers.Composite
	for i := range n {
		blk = layers.NewResidualBlock(layers.ResidualBlockConfig{InH: 8, InW: 8, InC: 4, MidC: 32, OutC: 4, Stride: 1, Seed: int64(30 + 10*i)})
		prev = m.AddNode("block"+string(rune('1'+i)), blk, prev)
	}
	head := m.AddNode("head", layers.NewDense(4, 3, layers.ActNone, 60), m.AddNode("gap", layers.NewGlobalAvgPool2D(), prev))
	head.Trainable = true
	m.SetOutputs(head)
	return m, blk
}

// TestFrozenBlocksFreeInnerTensors: a frozen block under no trainable node
// takes no backward step, so its inner tensors die at their last forward
// reader. In a forward-only pass the second of two frozen blocks then runs
// in buffers the first freed: it takes fewer fresh buffers from a new
// arena than the first block does (the head's own taken out, by runs with
// no block and with one). And the tape meters inner tensors: its peak is
// at least the block's widest, four times wider than anything outside it.
func TestFrozenBlocksFreeInnerTensors(t *testing.T) {
	const batch = 4
	x := tensor.RandNormal(rand.New(rand.NewSource(1)), 1, batch, 8, 8, 4)
	misses := make([]int64, 3)
	for n := range misses {
		m, blk := frozenBlocks(n)
		arena := tensor.NewArena()
		scope := arena.Scope()
		tape := graph.Compile(m).Run([]*tensor.Tensor{x}, graph.ForwardOptions{Alloc: scope})
		if n == 2 {
			shapes, err := blk.Inner().Validate()
			if err != nil {
				t.Fatal(err)
			}
			var widest int64
			for _, s := range shapes {
				widest = max(widest, int64(batch*tensor.NumElems(s))*4)
			}
			if got := tape.PeakBytes(); got < widest {
				t.Errorf("two frozen blocks: tape metered a %d-byte peak, below the block's widest inner tensor, %d bytes", got, widest)
			}
		}
		scope.Release()
		misses[n] = arena.Stats().Misses
	}
	if first, second := misses[1]-misses[0], misses[2]-misses[1]; second >= first {
		t.Errorf("fresh buffers: %d with no block, %d with one, %d with two: the second block took %d, the first %d — it reused none the first freed",
			misses[0], misses[1], misses[2], second, first)
	}
}

// TestFrozenBlockTakesNoParamGrads: a block node that does not train keeps
// its inner nodes from training, whatever they are marked, while the
// gradient still crosses it to a trainable layer below; a trainable adapter
// block trains its adapters only.
func TestFrozenBlockTakesNoParamGrads(t *testing.T) {
	for _, adapter := range []int{0, 2} {
		m := graph.NewModel("frozen_block")
		front := m.AddNode("front", layers.NewChannelAffine(8, 1), m.AddInput("x", 3, 8))
		blk := layers.NewTransformerBlock(layers.TransformerBlockConfig{Seq: 3, Dim: 8, Heads: 2, FFN: 16, Seed: 2, Adapter: adapter, AdapterSeed: 3})
		mid := m.AddNode("block", blk, front)
		head := m.AddNode("head", layers.NewDense(8, 2, layers.ActNone, 4), mid)
		front.Trainable, head.Trainable = true, true
		m.SetOutputs(head)

		rng := rand.New(rand.NewSource(5))
		for _, trains := range []bool{false, true} {
			mid.Trainable = trains
			prog := graph.Compile(m)
			tape := prog.Run([]*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 3, 8)}, graph.ForwardOptions{Train: true})
			if err := tape.BackwardOutputs([]*tensor.Tensor{tensor.RandNormal(rng, 1, 2, 3, 2)}); err != nil {
				t.Fatal(err)
			}
			want := map[*graph.Param]bool{}
			for _, p := range append(front.Layer.Params(), head.Layer.Params()...) {
				want[p] = true
			}
			if trains {
				for _, p := range blk.Inner().TrainableParams() {
					want[p] = true
				}
			}
			for k, p := range prog.Params() {
				if got := tape.ParamGradAt(k) != nil; got != want[p] {
					t.Errorf("adapter %d, block trainable %v: %s has a gradient: %v, want %v", adapter, trains, p.Name, got, want[p])
				}
			}
		}
	}
}

// planOnly is a layer the planner can price but nothing can run.
type planOnly struct{}

func (planOnly) Type() string                    { return "plan_only" }
func (planOnly) Config() map[string]any          { return nil }
func (planOnly) Params() []*graph.Param          { return nil }
func (planOnly) OutShape(in [][]int) []int       { return in[0] }
func (planOnly) FLOPsPerRecord(in [][]int) int64 { return 0 }

// TestCompileRejectsLayersItCannotRun: a computed node whose layer is
// neither a Kernel nor a Block is a compile-time panic naming the node.
func TestCompileRejectsLayersItCannotRun(t *testing.T) {
	m := graph.NewModel("m")
	m.SetOutputs(m.AddNode("priced", planOnly{}, m.AddInput("x", 2)))
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, `"priced"`) {
			t.Errorf("Compile panicked with %q, want the node named", r)
		}
	}()
	graph.Compile(m)
}
