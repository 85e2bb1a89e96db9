package graph_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// livenessModels are the shapes the tape's meter is checked on: a chain, a
// diamond, a composite-bearing model and a ResNet bottleneck laid out flat.
// Each of the first three has an aliasing output on its frozen trunk (an
// identity Activation) that a trainable head reads at its backward step.
// In the bottleneck relu2, the residual Add and relu_out write over their
// first input, which dies at their step. Its first conv and bn are frozen,
// so bn1's own tensor dies at relu1's step too, but relu1 may not write
// over it: bn1's buffer has a live alias (peek, an identity Activation)
// that a head reads at its backward step.
func livenessModels() map[string]*graph.Model {
	chain := graph.NewModel("chain")
	in := chain.AddInput("in", 4, 3)
	d1 := chain.AddNode("d1", layers.NewDense(3, 5, layers.ActTanh, 1), in)
	ident := chain.AddNode("ident", layers.NewActivation(layers.ActNone), d1)
	d2 := chain.AddNode("d2", layers.NewDense(5, 6, layers.ActGeLU, 2), ident)
	d3 := chain.AddNode("d3", layers.NewDense(6, 3, layers.ActNone, 3), d2)
	d2.Trainable, d3.Trainable = true, true
	chain.SetOutputs(d3)

	diamond := graph.NewModel("diamond")
	in = diamond.AddInput("in", 6)
	trunk := diamond.AddNode("trunk", layers.NewDense(6, 8, layers.ActReLU, 4), in)
	ident = diamond.AddNode("ident", layers.NewActivation(layers.ActNone), trunk)
	left := diamond.AddNode("left", layers.NewDense(8, 8, layers.ActTanh, 5), ident)
	right := diamond.AddNode("right", layers.NewDense(8, 8, layers.ActSigmoid, 6), ident)
	join := diamond.AddNode("join", layers.NewAdd(2), left, right)
	headA := diamond.AddNode("head_a", layers.NewDense(8, 3, layers.ActNone, 7), join)
	headB := diamond.AddNode("head_b", layers.NewDense(8, 2, layers.ActNone, 8), ident)
	left.Trainable, headA.Trainable, headB.Trainable = true, true, true
	diamond.SetOutputs(headA, headB)

	comp := graph.NewModel("composite")
	in = comp.AddInput("x", 5, 8)
	blk := comp.AddNode("block", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 5, Dim: 8, Heads: 2, FFN: 16, Seed: 9,
	}), in)
	ident = comp.AddNode("ident", layers.NewActivation(layers.ActNone), blk)
	adapt := comp.AddNode("adapted", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 5, Dim: 8, Heads: 2, FFN: 16, Seed: 10, Adapter: 3, AdapterSeed: 11,
	}), ident)
	cls := comp.AddNode("cls", layers.NewDense(8, 4, layers.ActNone, 12), adapt)
	adapt.Trainable, cls.Trainable = true, true
	comp.SetOutputs(cls)

	res := graph.NewModel("bottleneck")
	x := res.AddInput("x", 4, 4, 4)
	c1 := res.AddNode("conv1", layers.NewConv2D(4, 6, 1, 1, 0, layers.ActNone, 13), x)
	b1 := res.AddNode("bn1", layers.NewChannelAffine(6, 14), c1)
	peek := res.AddNode("peek", layers.NewActivation(layers.ActNone), b1)
	r1 := res.AddNode("relu1", layers.NewActivation(layers.ActReLU), b1)
	c2 := res.AddNode("conv2", layers.NewConv2D(6, 6, 3, 1, 1, layers.ActNone, 15), r1)
	b2 := res.AddNode("bn2", layers.NewChannelAffine(6, 16), c2)
	r2 := res.AddNode("relu2", layers.NewActivation(layers.ActReLU), b2)
	c3 := res.AddNode("conv3", layers.NewConv2D(6, 4, 1, 1, 0, layers.ActNone, 17), r2)
	b3 := res.AddNode("bn3", layers.NewChannelAffine(4, 18), c3)
	sum := res.AddNode("res", layers.NewAdd(2), b3, x)
	out := res.AddNode("relu_out", layers.NewActivation(layers.ActReLU), sum)
	head := res.AddNode("head", layers.NewDense(4, 3, layers.ActNone, 19), res.AddNode("gap", layers.NewGlobalAvgPool2D(), out))
	side := res.AddNode("side", layers.NewDense(6, 2, layers.ActNone, 20), peek)
	for _, n := range res.Nodes() {
		n.Trainable = !n.IsInput() && n != c1 && n != b1
	}
	res.SetOutputs(head, side)
	return map[string]*graph.Model{"chain": chain, "diamond": diamond, "composite": comp, "bottleneck": res}
}

// aliases reports whether n's output shares its input's buffer.
func aliases(n *graph.Node) bool {
	l, ok := n.Layer.(*layers.Activation)
	return ok && l.Act == layers.ActNone
}

// donates reports whether, in a step scope, the tape writes position p's
// output over its first parent's buffer: p runs a relu Activation or an
// Add, the table says that parent's tensor dies at p's forward step, no
// other slot of p is the same parent, the buffer is not a feed's, and no
// other tensor sharing it (owner says whose buffer each position's output
// is) is still live at that step.
func donates(prog *graph.Program, owner []int, p int) bool {
	lv := prog.Liveness()
	switch l := prog.Nodes()[p].Layer.(type) {
	case *layers.Activation:
		if l.Act != layers.ActReLU {
			return false
		}
	case *layers.Add:
	default:
		return false
	}
	ps := prog.Parents(p)
	q := int(ps[0])
	if lv.LastUse[lv.Fwd[q]] != lv.Fwd[p] || slices.Contains(ps[1:], ps[0]) || prog.Nodes()[owner[q]].IsInput() {
		return false
	}
	for s := range p {
		if s != q && owner[s] == owner[q] && lv.LastUse[lv.Fwd[s]] >= lv.Fwd[p] {
			return false
		}
	}
	return true
}

// TestTapePeakMatchesLivenessReplay: the live bytes the tape meters over
// one training step peak exactly where the program's liveness table,
// replayed over the step's real tensor sizes by graph.PeakLive (the sweep
// opt.EstimatePeakMemory runs), says they do — with an aliasing output
// counted once and holding its input's buffer to its own last use. In a
// step scope a ReLU or Add written over its dying input is such an alias
// too; a heap run owns no buffer and writes over none. The bits of every
// parameter gradient are the same with and without a scope: a buffer freed
// or written over while a reader is still ahead corrupts them.
func TestTapePeakMatchesLivenessReplay(t *testing.T) {
	const batch = 3
	for name, m := range livenessModels() {
		t.Run(name, func(t *testing.T) {
			shapes, err := m.Validate()
			if err != nil {
				t.Fatal(err)
			}
			prog := graph.Compile(m)
			lv := prog.Liveness()

			// The replay, over every position (a block's inner nodes have
			// their own): a position's forward tensor and its backward
			// step's gradient are its output's bytes; an alias's forward
			// tensor is nothing, and extends its buffer's owner to its own
			// last use.
			replay := func(scoped bool) int64 {
				size := make([]int64, lv.Steps())
				last := slices.Clone(lv.LastUse)
				owner := make([]int, len(prog.Nodes()))
				shape := make([][]int, len(prog.Nodes()))
				for p, n := range prog.Nodes() {
					var in [][]int
					for _, q := range prog.Parents(p) {
						in = append(in, shape[q])
					}
					shape[p] = n.Layer.OutShape(in)
					bytes := int64(batch*tensor.NumElems(shape[p])) * 4
					owner[p] = p
					if aliases(n) || scoped && donates(prog, owner, p) {
						owner[p] = owner[prog.Parents(p)[0]]
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
				return graph.PeakLive(size, last, make([]int64, len(size)))
			}

			var heapGrads []*tensor.Tensor
			for _, arena := range []*tensor.Arena{nil, tensor.NewArena()} {
				scope := arena.Scope()
				want := replay(scope != nil)
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
// output is read only by the identity Activation that aliases it, whose
// last reader is the trainable left branch's backward: the last step.
func TestLivenessFreesAtLastUse(t *testing.T) {
	m := livenessModels()["diamond"]
	prog := graph.Compile(m)
	lv := prog.Liveness()
	at := map[string]int{}
	for p, n := range prog.Nodes() {
		at[n.Name] = p
	}
	if got := lv.LastUse[lv.Fwd[at["trunk"]]]; got != lv.Fwd[at["ident"]] {
		t.Errorf("trunk's own last use is step %d, want the identity's forward %d", got, lv.Fwd[at["ident"]])
	}
	if got, want := lv.LastUse[lv.Fwd[at["ident"]]], int32(lv.Steps()-1); got != want {
		t.Errorf("ident's last use is step %d, want the last backward step %d", got, want)
	}
	if lv.Bwd[at["trunk"]] >= 0 || lv.Bwd[at["ident"]] >= 0 || lv.NeedGrad[at["right"]] {
		t.Errorf("the frozen trunk and the frozen right branch take no gradient")
	}
	if lv.Bwd[at["join"]] < 0 || !lv.NeedGrad[at["join"]] {
		t.Errorf("join sits under the trainable left branch: it needs a backward step")
	}
}

// TestDonatedReLUScopeTensors pins what donation saves: a ReLU over a
// ChannelAffine output that dies at the ReLU's step writes over it and
// takes no scope tensor of its own; over one that is still live (a second
// model output) it takes one. The bn's output is the forward's other
// tensor. The ReLU's output has the heap run's bits either way.
func TestDonatedReLUScopeTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 1, 4, 6)
	for _, tc := range []struct {
		keepBN bool
		want   int
	}{{false, 0}, {true, 1}} {
		m := graph.NewModel("bn_relu")
		bn := m.AddNode("bn", layers.NewChannelAffine(6, 1), m.AddInput("in", 6))
		relu := m.AddNode("relu", layers.NewActivation(layers.ActReLU), bn)
		bn.Trainable = true
		outs := []*graph.Node{relu}
		if tc.keepBN {
			outs = append(outs, bn)
		}
		m.SetOutputs(outs...)
		prog := graph.Compile(m)
		heap := prog.Run([]*tensor.Tensor{x}, graph.ForwardOptions{Train: true}).Output(relu)
		scope := tensor.NewArena().Scope()
		got := prog.Run([]*tensor.Tensor{x}, graph.ForwardOptions{Train: true, Alloc: scope}).Output(relu)
		if n := scope.Live() - 1; n != tc.want {
			t.Errorf("bn output live past the relu = %v: relu took %d scope tensors, want %d", tc.keepBN, n, tc.want)
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(heap.Data()[i]) {
				t.Fatalf("bn output live past the relu = %v: relu[%d] = %v in a step scope, %v on the heap", tc.keepBN, i, v, heap.Data()[i])
			}
		}
		scope.Release()
	}
}

// TestFrozenDenseKeepsNoBackwardState: a layer runs in train mode only at a
// position with a backward step. In a training step of x → frozen GELU
// dense → trainable head, the frozen dense keeps no act′: the forward takes
// two scope tensors, the dense's output and the head's, where with the
// dense trainable it takes a third, act′. The output, the loss and the
// head's gradients have the same bits either way.
func TestFrozenDenseKeepsNoBackwardState(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 1, 6, 8)
	labels := tensor.FromSlice([]float32{0, 2, 1, 3, 2, 0}, 6)
	trunk := layers.NewDense(8, 16, layers.ActGeLU, 1)
	head := layers.NewDense(16, 4, layers.ActNone, 2)
	type step struct {
		out   []float32
		loss  float64
		grads map[*graph.Param][]float32
	}
	run := func(trunkTrains bool, wantLive int) step {
		m := graph.NewModel("frozen_dense")
		d := m.AddNode("trunk", trunk, m.AddInput("x", 8))
		h := m.AddNode("head", head, d)
		d.Trainable, h.Trainable = trunkTrains, true
		m.SetOutputs(h)
		prog := graph.Compile(m)
		scope := tensor.NewArena().Scope()
		defer scope.Release()
		tape := prog.Run([]*tensor.Tensor{x}, graph.ForwardOptions{Train: true, Alloc: scope})
		if got := scope.Live(); got != wantLive {
			t.Errorf("trunk trainable = %v: the forward took %d scope tensors, want %d", trunkTrains, got, wantLive)
		}
		out := tape.Output(h)
		loss, g := train.SoftmaxCrossEntropy{}.Compute(out, labels)
		r := step{out: slices.Clone(out.Data()), loss: loss, grads: map[*graph.Param][]float32{}}
		if err := tape.BackwardOutputs([]*tensor.Tensor{g}); err != nil {
			t.Fatal(err)
		}
		for k, p := range prog.Params() {
			if g := tape.ParamGradAt(k); g != nil {
				r.grads[p] = slices.Clone(g.Data())
			}
		}
		return r
	}
	frozen, trained := run(false, 2), run(true, 3)
	same := func(what string, got, want []float32) {
		for i, v := range got {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("%s[%d] = %v with the trunk frozen, %v with it trainable", what, i, v, want[i])
			}
		}
	}
	same("output", frozen.out, trained.out)
	if math.Float64bits(frozen.loss) != math.Float64bits(trained.loss) {
		t.Errorf("loss = %v with the trunk frozen, %v with it trainable", frozen.loss, trained.loss)
	}
	for _, p := range head.Params() {
		if frozen.grads[p] == nil || trained.grads[p] == nil {
			t.Fatalf("head parameter %q got no gradient", p.Name)
		}
		same("head "+p.Name+" gradient", frozen.grads[p], trained.grads[p])
	}
}

// fusedStep builds a small fused plan model — two trainable heads over one
// frozen trunk with an aliasing identity Activation — and returns one warm
// training step of it in a recycled scope.
func fusedStep(t *testing.T) func() {
	t.Helper()
	m := graph.NewModel("fused")
	in := m.AddInput("in", 12)
	trunk := m.AddNode("trunk", layers.NewDense(12, 24, layers.ActReLU, 1), in)
	ident := m.AddNode("ident", layers.NewActivation(layers.ActNone), trunk)
	var outs []*graph.Node
	var grads []*tensor.Tensor
	rng := rand.New(rand.NewSource(2))
	for i, act := range []string{layers.ActTanh, layers.ActGeLU} {
		h := m.AddNode("hidden"+act, layers.NewDense(24, 8, act, int64(10+i)), ident)
		o := m.AddNode("out"+act, layers.NewDense(8, 3, layers.ActNone, int64(20+i)), h)
		h.Trainable, o.Trainable = true, true
		outs = append(outs, o)
		grads = append(grads, tensor.RandNormal(rng, 1, 5, 3))
	}
	m.SetOutputs(outs...)
	prog := graph.Compile(m)
	feeds := []*tensor.Tensor{tensor.RandNormal(rng, 1, 5, 12)}
	scope := tensor.NewArena().Scope()
	t.Cleanup(scope.Release)
	step := func() {
		tape := prog.Run(feeds, graph.ForwardOptions{Train: true, Alloc: scope})
		if err := tape.BackwardOutputs(grads); err != nil {
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
// rest the layers' boxed caches, gradient lists and kernel closures (36 in
// all). The limit sits one above, so a per-step map keyed by node or
// parameter — two objects at least — fails it.
func TestTrainStepAllocs(t *testing.T) {
	step := fusedStep(t)
	if got, limit := testing.AllocsPerRun(20, step), 37.0; got > limit {
		t.Errorf("warm training step: %v allocs, want at most %v", got, limit)
	}
}
