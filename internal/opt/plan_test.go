package opt

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/profile"
	"nautilus/internal/tensor"
)

// randomDAG builds a random dense/concat DAG with random trainability —
// the adversarial input for plan-optimality property tests.
func randomDAG(rng *rand.Rand, name string) *graph.Model {
	m := graph.NewModel(name)
	in := m.AddInput("in", 2+rng.Intn(4))
	width := map[*graph.Node]int{in: in.Layer.(*graph.InputLayer).Shape[0]}
	nodes := []*graph.Node{in}
	nn := 2 + rng.Intn(5)
	for i := 0; i < nn; i++ {
		if rng.Intn(4) == 0 && len(nodes) >= 2 {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if a != b {
				n := m.AddNode(fmt.Sprintf("cat%d", i), layers.NewConcat(2), a, b)
				n.Trainable = rng.Intn(3) == 0
				width[n] = width[a] + width[b]
				nodes = append(nodes, n)
				continue
			}
		}
		p := nodes[rng.Intn(len(nodes))]
		w := 2 + rng.Intn(4)
		n := m.AddNode(fmt.Sprintf("d%d", i), layers.NewDense(width[p], w, layers.ActNone, rng.Int63()), p)
		n.Trainable = rng.Intn(3) == 0
		width[n] = w
		nodes = append(nodes, n)
	}
	m.SetOutputs(nodes[len(nodes)-1])
	return m
}

// bruteForcePlanCost enumerates every valid action assignment and returns
// the minimum Equation-5 cost.
func bruteForcePlanCost(prof *profile.ModelProfile, loadable map[graph.Signature]bool) int64 {
	nodes := prof.Model.Reachable()
	canLoad := func(n *graph.Node) bool {
		return n.IsInput() || loadable[prof.Sig(n)]
	}
	outputs := map[*graph.Node]bool{}
	for _, o := range prof.Model.Outputs {
		outputs[o] = true
	}
	best := int64(1) << 62
	var assign func(i int, act map[*graph.Node]Action)
	assign = func(i int, act map[*graph.Node]Action) {
		if i == len(nodes) {
			var cost int64
			for _, n := range nodes {
				a := act[n]
				if outputs[n] && a == Pruned {
					return
				}
				switch a {
				case Computed:
					if n.IsInput() {
						return // inputs cannot be computed
					}
					for _, p := range n.Parents {
						if act[p] == Pruned {
							return
						}
					}
					cost += prof.Layer(n).CompFLOPs
				case Loaded:
					if !canLoad(n) {
						return
					}
					cost += prof.Layer(n).LoadFLOPs
				}
			}
			if cost < best {
				best = cost
			}
			return
		}
		for _, a := range []Action{Pruned, Computed, Loaded} {
			act[nodes[i]] = a
			assign(i+1, act)
		}
		delete(act, nodes[i])
	}
	assign(0, map[*graph.Node]Action{})
	return best
}

func TestSolveReusePlanMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomDAG(rng, "r")
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			return false
		}
		// Random loadable subset of materializable nodes.
		loadable := map[graph.Signature]bool{}
		mat := m.Materializable()
		for _, n := range m.Nodes() {
			if mat[n.Index()] && !n.IsInput() && rng.Intn(2) == 0 {
				loadable[prof.Sig(n)] = true
			}
		}
		plan, err := SolveReusePlan(prof, loadable)
		if err != nil {
			return false
		}
		want := bruteForcePlanCost(prof, loadable)
		return plan.CostPerRecord == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSolveReusePlanNoMaterializationEqualsCurrentPractice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		m := randomDAG(rng, "r")
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := SolveReusePlan(prof, nil)
		if err != nil {
			t.Fatal(err)
		}
		cp := CurrentPracticePlan(prof)
		// The optimal no-materialization plan can only differ from
		// Current Practice by pruning dead branches, which randomDAG can
		// contain; cost must never exceed Current Practice.
		if plan.CostPerRecord > cp.CostPerRecord {
			t.Errorf("plan cost %d exceeds current practice %d", plan.CostPerRecord, cp.CostPerRecord)
		}
	}
}

func TestPlanLoadsAllMaterializedWhenFree(t *testing.T) {
	// With every frozen node loadable and a load cost far below compute,
	// the plan must load the frontier and prune everything above it.
	m := graph.NewModel("chain")
	in := m.AddInput("in", 64)
	d1 := m.AddNode("d1", layers.NewDense(64, 64, layers.ActNone, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(64, 64, layers.ActNone, 2), d1)
	h := m.AddNode("h", layers.NewDense(64, 4, layers.ActNone, 3), d2)
	h.Trainable = true
	m.SetOutputs(h)

	// Fast disk: loading beats computing.
	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 1e12, WorkspaceBytes: 1 << 30}
	prof, err := profile.Profile(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	loadable := map[graph.Signature]bool{prof.Sig(d1): true, prof.Sig(d2): true}
	plan, err := SolveReusePlan(prof, loadable)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action(d2) != Loaded {
		t.Errorf("d2 action = %v, want loaded", plan.Action(d2))
	}
	if plan.Action(d1) != Pruned || plan.Action(in) != Pruned {
		t.Errorf("ancestors should be pruned: d1=%v in=%v", plan.Action(d1), plan.Action(in))
	}
	if plan.Action(h) != Computed {
		t.Errorf("head action = %v, want computed", plan.Action(h))
	}
}

func TestPlanPrefersRecomputeOnSlowDisk(t *testing.T) {
	// With a glacial disk and a materialized output far larger than the
	// dataset input, loading the intermediate costs more than loading the
	// small input and recomputing: the plan must compute d1 even though
	// materialization is allowed. (This is the MAT-ALL pathology the paper
	// calls out: loading everything is not always optimal.)
	m := graph.NewModel("chain")
	in := m.AddInput("in", 4)
	d1 := m.AddNode("d1", layers.NewDense(4, 256, layers.ActNone, 1), in)
	h := m.AddNode("h", layers.NewDense(256, 2, layers.ActNone, 2), d1)
	h.Trainable = true
	m.SetOutputs(h)

	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 1, WorkspaceBytes: 1 << 30}
	prof, err := profile.Profile(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	loadable := map[graph.Signature]bool{prof.Sig(d1): true}
	plan, err := SolveReusePlan(prof, loadable)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Action(d1) != Computed {
		t.Errorf("d1 action = %v, want computed (load too slow)", plan.Action(d1))
	}
}

func TestBuildPlanModelExecutionEquivalence(t *testing.T) {
	// The reuse-plan model fed with materialized outputs must reproduce
	// the original model's outputs bit-for-bit (float tolerance).
	m := graph.NewModel("orig")
	in := m.AddInput("in", 6)
	d1 := m.AddNode("d1", layers.NewDense(6, 8, layers.ActTanh, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(8, 8, layers.ActTanh, 2), d1)
	h := m.AddNode("h", layers.NewDense(8, 3, layers.ActNone, 3), d2)
	h.Trainable = true
	m.SetOutputs(h)

	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 1e12, WorkspaceBytes: 1 << 30}
	prof, err := profile.Profile(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	loadable := map[graph.Signature]bool{prof.Sig(d2): true}
	plan, err := SolveReusePlan(prof, loadable)
	if err != nil {
		t.Fatal(err)
	}
	pm, feeds, err := BuildPlanModel(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(feeds) != 1 {
		t.Fatalf("feeds = %v, want one", feeds)
	}

	rng := rand.New(rand.NewSource(5))
	x := tensor.RandNormal(rng, 1, 3, 6)
	origTape, err := m.Forward(map[string]*tensor.Tensor{"in": x}, true)
	if err != nil {
		t.Fatal(err)
	}
	// "Materialize" d2 and feed the plan model.
	planFeeds := map[string]*tensor.Tensor{}
	for name := range feeds {
		planFeeds[name] = origTape.Output(d2)
	}
	planTape, err := pm.Forward(planFeeds, true)
	if err != nil {
		t.Fatal(err)
	}
	if !planTape.Output(pm.Outputs[0]).AllClose(origTape.Output(h), 1e-6) {
		t.Error("plan model output differs from original")
	}

	// Gradient equivalence for the shared trainable head.
	g := tensor.RandNormal(rng, 1, 3, 3)
	if err := origTape.Backward(map[string]*tensor.Tensor{"h": g}); err != nil {
		t.Fatal(err)
	}
	if err := planTape.Backward(map[string]*tensor.Tensor{"h": g}); err != nil {
		t.Fatal(err)
	}
	p := h.Layer.Params()[0]
	if !origTape.ParamGrads()[p].AllClose(planTape.ParamGrads()[p], 1e-5) {
		t.Error("plan model gradients differ from original")
	}
}

func TestBuildPlanModelRejectsPrunedOutput(t *testing.T) {
	m := graph.NewModel("bad")
	in := m.AddInput("in", 2)
	h := m.AddNode("h", layers.NewDense(2, 2, layers.ActNone, 1), in)
	m.SetOutputs(h)
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	plan := &Plan{Prof: prof, Actions: make([]Action, m.NumNodes())} // in and h both pruned
	if _, _, err := BuildPlanModel(plan); err == nil {
		t.Error("pruned output should be rejected")
	}
}

func TestCurrentPracticePlanCountsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randomDAG(rng, "cp")
	prof, err := profile.Profile(m, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	cp := CurrentPracticePlan(prof)
	var want int64
	for _, n := range m.Reachable() {
		if n.IsInput() {
			want += prof.Layer(n).LoadFLOPs
		} else {
			want += prof.Layer(n).CompFLOPs
		}
	}
	if cp.CostPerRecord != want {
		t.Errorf("current practice cost %d, want %d", cp.CostPerRecord, want)
	}
	if _, _, loaded := cp.CountActions(); loaded != len(m.Inputs()) {
		t.Error("current practice should load exactly the dataset inputs")
	}
}

func TestPlanDOTRendersAllActions(t *testing.T) {
	m := graph.NewModel("dot")
	in := m.AddInput("in", 64)
	d1 := m.AddNode("d1", layers.NewDense(64, 64, layers.ActNone, 1), in)
	d2 := m.AddNode("d2", layers.NewDense(64, 64, layers.ActNone, 2), d1)
	h := m.AddNode("h", layers.NewDense(64, 4, layers.ActNone, 3), d2)
	h.Trainable = true
	m.SetOutputs(h)
	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 1e12, WorkspaceBytes: 1 << 30}
	prof, err := profile.Profile(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := SolveReusePlan(prof, map[graph.Signature]bool{prof.Sig(d2): true})
	if err != nil {
		t.Fatal(err)
	}
	dot := PlanDOT(plan)
	for _, want := range []string{"digraph", "fillcolor", "style=dashed", `"d2"`, `"h"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Pruned nodes have no outgoing solid edges to computed nodes.
	if strings.Contains(dot, `"in" -> "d1" [style=dashed`) {
		// in and d1 both pruned: the edge is either absent or dashed; both fine.
		_ = dot
	}
}
