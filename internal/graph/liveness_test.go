package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
)

// livenessModels are the shapes the tape's meter is checked on: a chain, a
// diamond, and a composite-bearing model. Each has an aliasing output on
// its frozen trunk (a rate-0 Dropout, a Flatten, an identity Activation)
// that a trainable head reads at its backward step.
func livenessModels() map[string]*graph.Model {
	chain := graph.NewModel("chain")
	in := chain.AddInput("in", 4, 3)
	d1 := chain.AddNode("d1", layers.NewDense(3, 5, layers.ActTanh, 1), in)
	flat := chain.AddNode("flat", layers.NewFlatten(), d1)
	d2 := chain.AddNode("d2", layers.NewDense(20, 6, layers.ActGeLU, 2), flat)
	d3 := chain.AddNode("d3", layers.NewDense(6, 3, layers.ActNone, 3), d2)
	d2.Trainable, d3.Trainable = true, true
	chain.SetOutputs(d3)

	diamond := graph.NewModel("diamond")
	in = diamond.AddInput("in", 6)
	trunk := diamond.AddNode("trunk", layers.NewDense(6, 8, layers.ActReLU, 4), in)
	drop := diamond.AddNode("drop0", layers.NewDropout(0), trunk)
	left := diamond.AddNode("left", layers.NewDense(8, 8, layers.ActTanh, 5), drop)
	right := diamond.AddNode("right", layers.NewDense(8, 8, layers.ActSigmoid, 6), drop)
	join := diamond.AddNode("join", layers.NewAdd(2), left, right)
	headA := diamond.AddNode("head_a", layers.NewDense(8, 3, layers.ActNone, 7), join)
	headB := diamond.AddNode("head_b", layers.NewDense(8, 2, layers.ActNone, 8), drop)
	left.Trainable, headA.Trainable, headB.Trainable = true, true, true
	diamond.SetOutputs(headA, headB)

	comp := graph.NewModel("composite")
	in = comp.AddInput("x", 5, 8)
	blk := comp.AddNode("block", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 5, Dim: 8, Heads: 2, FFN: 16, Seed: 9,
	}), in)
	ident := comp.AddNode("ident", layers.NewActivation(layers.ActNone), blk)
	adapt := comp.AddNode("adapted", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 5, Dim: 8, Heads: 2, FFN: 16, Seed: 10, Adapter: 3, AdapterSeed: 11,
	}), ident)
	cls := comp.AddNode("cls", layers.NewDense(8, 4, layers.ActNone, 12), adapt)
	adapt.Trainable, cls.Trainable = true, true
	comp.SetOutputs(cls)
	return map[string]*graph.Model{"chain": chain, "diamond": diamond, "composite": comp}
}

// aliases reports whether n's output shares its input's buffer.
func aliases(n *graph.Node) bool {
	switch l := n.Layer.(type) {
	case *layers.Flatten:
		return true
	case *layers.Dropout:
		return l.Rate == 0
	case *layers.Activation:
		return l.Act == layers.ActNone
	}
	return false
}

// TestTapePeakMatchesLivenessReplay: the live bytes the tape meters over
// one training step peak exactly where the program's liveness table,
// replayed over the step's real tensor sizes by graph.PeakLive (the sweep
// opt.EstimatePeakMemory runs), says they do — with an aliasing output
// counted once and holding its input's buffer to its own last use. The
// meter is the same with and without a step scope, and so are the bits of
// every parameter gradient: a buffer freed while a reader is still ahead
// gets reused within the step and corrupts them.
func TestTapePeakMatchesLivenessReplay(t *testing.T) {
	const batch = 3
	for name, m := range livenessModels() {
		t.Run(name, func(t *testing.T) {
			shapes, err := m.Validate()
			if err != nil {
				t.Fatal(err)
			}
			prog := graph.Compile(m, false)
			lv := prog.Liveness()

			// The replay: a node's forward tensor and its backward step's
			// gradient are its output's bytes; an alias's forward tensor is
			// nothing, and extends its buffer's owner to its own last use.
			size := make([]int64, lv.Steps())
			last := slices.Clone(lv.LastUse)
			owner := make([]int, len(prog.Nodes()))
			pos := map[*graph.Node]int{}
			for p, n := range prog.Nodes() {
				pos[n] = p
				bytes := int64(batch*tensor.NumElems(shapes[n.Index()])) * 4
				owner[p] = p
				if aliases(n) {
					owner[p] = owner[pos[n.Parents[0]]]
				} else {
					size[lv.Fwd[p]] = bytes
				}
				if b := lv.Bwd[p]; b >= 0 {
					size[b] = bytes
				}
			}
			for p, o := range owner {
				last[o] = max(last[o], lv.LastUse[p])
			}
			want := graph.PeakLive(size, last, make([]int64, len(size)))

			var heapGrads []*tensor.Tensor
			for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
				scope := arena.Scope()
				rng := rand.New(rand.NewSource(1))
				var feeds []*tensor.Tensor
				for _, in := range prog.Inputs() {
					feeds = append(feeds, tensor.RandNormal(rng, 1, append([]int{batch}, shapes[in.Index()]...)...))
				}
				tape := prog.Run(feeds, graph.ForwardOptions{Train: true, Alloc: scope})
				grads := map[string]*tensor.Tensor{}
				for _, o := range m.Outputs {
					grads[o.Name] = tensor.RandNormal(rng, 1, tape.Output(o).Shape()...)
				}
				if err := tape.Backward(grads); err != nil {
					t.Fatal(err)
				}
				if got := tape.PeakBytes(); got != want || want == 0 {
					t.Errorf("scoped=%v: tape metered a %d-byte peak, the table's replay %d", scope != nil, got, want)
				}
				for k := range prog.Params() {
					g := tape.ParamGradAt(k)
					if scope == nil {
						if g != nil {
							g = g.Clone()
						}
						heapGrads = append(heapGrads, g)
					} else if (g == nil) != (heapGrads[k] == nil) || g != nil && !g.AllClose(heapGrads[k], 0) {
						t.Errorf("parameter %d's gradient differs in a step scope", k)
					}
				}
				scope.Release()
			}
		})
	}
}

// TestLivenessFreesAtLastUse walks the diamond's table: the trunk's ReLU
// output is read only by the rate-0 Dropout that aliases it, whose last
// reader is the trainable left branch's backward: the last step.
func TestLivenessFreesAtLastUse(t *testing.T) {
	m := livenessModels()["diamond"]
	prog := graph.Compile(m, false)
	lv := prog.Liveness()
	at := map[string]int{}
	for p, n := range prog.Nodes() {
		at[n.Name] = p
	}
	if got := lv.LastUse[lv.Fwd[at["trunk"]]]; got != lv.Fwd[at["drop0"]] {
		t.Errorf("trunk's own last use is step %d, want the dropout's forward %d", got, lv.Fwd[at["drop0"]])
	}
	if got, want := lv.LastUse[lv.Fwd[at["drop0"]]], int32(lv.Steps()-1); got != want {
		t.Errorf("drop0's last use is step %d, want the last backward step %d", got, want)
	}
	if lv.Bwd[at["trunk"]] >= 0 || lv.Bwd[at["drop0"]] >= 0 || lv.NeedGrad[at["right"]] {
		t.Errorf("the frozen trunk and the frozen right branch take no gradient")
	}
	if lv.Bwd[at["join"]] < 0 || !lv.NeedGrad[at["join"]] {
		t.Errorf("join sits under the trainable left branch: it needs a backward step")
	}
}

// fusedStep builds a small fused plan model — two trainable heads over one
// frozen trunk with an aliasing Flatten — and returns one warm training
// step of it in a recycled scope.
func fusedStep(t *testing.T) func() {
	t.Helper()
	m := graph.NewModel("fused")
	in := m.AddInput("in", 4, 3)
	trunk := m.AddNode("trunk", layers.NewDense(3, 6, layers.ActReLU, 1), in)
	flat := m.AddNode("flat", layers.NewFlatten(), trunk)
	var outs []*graph.Node
	var grads []*tensor.Tensor
	rng := rand.New(rand.NewSource(2))
	for i, act := range []string{layers.ActTanh, layers.ActGeLU} {
		h := m.AddNode("hidden"+act, layers.NewDense(24, 8, act, int64(10+i)), flat)
		o := m.AddNode("out"+act, layers.NewDense(8, 3, layers.ActNone, int64(20+i)), h)
		h.Trainable, o.Trainable = true, true
		outs = append(outs, o)
		grads = append(grads, tensor.RandNormal(rng, 1, 5, 3))
	}
	m.SetOutputs(outs...)
	prog := graph.Compile(m, false)
	feeds := []*tensor.Tensor{tensor.RandNormal(rng, 1, 5, 4, 3)}
	scope := tensor.NewArena().Scope()
	t.Cleanup(scope.Release)
	step := func() {
		tape := prog.Run(feeds, graph.ForwardOptions{Train: true, Alloc: scope})
		if err := tape.BackwardOutputs(grads, graph.BackwardOptions{}); err != nil {
			t.Fatal(err)
		}
		for k := range prog.Params() {
			if tape.ParamGradAt(k) == nil && k >= 2 {
				t.Fatalf("trainable parameter %d got no gradient", k)
			}
		}
		scope.Recycle()
	}
	step()
	return step
}

// TestTrainStepAllocs pins the heap objects of one warm training step of a
// compiled program in a recycled scope: five for the tape's slices, the
// rest the layers' boxed caches, gradient lists and kernel closures (42 in
// all). The limit sits one above, so a per-step map keyed by node or
// parameter — two objects at least — fails it.
func TestTrainStepAllocs(t *testing.T) {
	step := fusedStep(t)
	if got, limit := testing.AllocsPerRun(20, step), 43.0; got > limit {
		t.Errorf("warm training step: %v allocs, want at most %v", got, limit)
	}
}
