package opt_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mincut"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// oracleSolveReusePlan is SolveReusePlan as it was before the planner's
// tables became slices: pointer-keyed variable maps, a fresh Energy, terms
// added node by node, an action map read off the labels. It is the
// differential oracle for the flat solver.
func oracleSolveReusePlan(prof *profile.ModelProfile, loadableSigs map[graph.Signature]bool) (map[*graph.Node]opt.Action, int64, error) {
	m := prof.Model
	nodes := m.Reachable()

	presentVar := map[*graph.Node]int{}
	computedVar := map[*graph.Node]int{}
	nv := 0
	loadable := func(n *graph.Node) bool {
		return n.IsInput() || loadableSigs[prof.Sig(n)]
	}
	for _, n := range nodes {
		presentVar[n] = nv
		nv++
		if !n.IsInput() {
			if loadable(n) {
				computedVar[n] = nv
				nv++
			} else {
				computedVar[n] = presentVar[n] // merged
			}
		}
	}

	var e mincut.Energy
	e.Reset(nv)
	for _, n := range nodes {
		lp := prof.Layer(n)
		switch {
		case n.IsInput():
			e.AddUnary(presentVar[n], 0, lp.LoadFLOPs)
		case loadable(n):
			e.AddUnary(presentVar[n], 0, lp.LoadFLOPs)
			e.AddUnary(computedVar[n], 0, lp.CompFLOPs-lp.LoadFLOPs)
			e.AddImplication(computedVar[n], presentVar[n])
		default:
			e.AddUnary(presentVar[n], 0, lp.CompFLOPs)
		}
		if !n.IsInput() {
			for _, par := range n.Parents {
				e.AddImplication(computedVar[n], presentVar[par])
			}
		}
	}
	for _, o := range m.Outputs {
		e.AddUnary(presentVar[o], mincut.Inf, 0) // outputs must be present
	}

	labels, cost, err := e.Solve()
	if err != nil {
		return nil, 0, err
	}
	actions := map[*graph.Node]opt.Action{}
	for _, n := range nodes {
		present := labels[presentVar[n]]
		switch {
		case !present:
			actions[n] = opt.Pruned
		case n.IsInput():
			actions[n] = opt.Loaded
		case labels[computedVar[n]]:
			actions[n] = opt.Computed
		default:
			actions[n] = opt.Loaded
		}
	}
	return actions, cost, nil
}

// oracleEstimatePeakMemory is EstimatePeakMemory as it was: the augmented
// graph of Figure 5B as consumer lists over pointer-keyed indices, freeAt
// lists for the sweep, and the parameter accounting from the graph's own
// parameter lists (two sets per call), not from the profile's table.
func oracleEstimatePeakMemory(prof *profile.ModelProfile, actions map[*graph.Node]opt.Action, batch int, optBytesPerTrainableByte int64) opt.MemoryEstimate {
	m := prof.Model

	var fwd []*graph.Node
	for _, n := range m.Reachable() {
		if actions[n] != opt.Pruned {
			fwd = append(fwd, n)
		}
	}

	est := opt.MemoryEstimate{WorkspaceBytes: prof.HW.WorkspaceBytes}
	seenParam := map[*graph.Param]bool{}
	trainSet := map[*graph.Param]bool{}
	for _, p := range m.TrainableParams() {
		trainSet[p] = true
	}
	for _, n := range fwd {
		if actions[n] != opt.Computed {
			continue
		}
		for _, p := range n.Layer.Params() {
			if seenParam[p] {
				continue
			}
			seenParam[p] = true
			est.ParamBytes += p.Bytes()
			if trainSet[p] {
				est.OptimizerBytes += p.Bytes() * optBytesPerTrainableByte
			}
		}
	}

	anyNeeds := func(ns []*graph.Node, set map[*graph.Node]bool) bool {
		for _, n := range ns {
			if set[n] {
				return true
			}
		}
		return false
	}
	needGrad := map[*graph.Node]bool{}
	for _, n := range fwd {
		needGrad[n] = actions[n] == opt.Computed && !n.Frozen() || anyNeeds(n.Parents, needGrad)
	}
	hasBwd := map[*graph.Node]bool{}
	for _, n := range fwd {
		if actions[n] == opt.Computed && (!n.Frozen() || anyNeeds(n.Parents, needGrad)) {
			hasBwd[n] = true
		}
	}

	idx := map[*graph.Node]int{}
	for i, n := range fwd {
		idx[n] = i
	}
	F := len(fwd)
	loss := F
	bwdIdx := map[*graph.Node]int{}
	total := F + 1
	for _, n := range fwd {
		if hasBwd[n] {
			bwdIdx[n] = total
			total++
		}
	}

	size := make([]int64, total)
	for i, n := range fwd {
		size[i] = prof.Layer(n).MemBytes
	}
	for n, bi := range bwdIdx {
		size[bi] = prof.Layer(n).MemBytes
	}

	consumers := make([][]int, total)
	childrenOf := map[*graph.Node][]*graph.Node{}
	for _, n := range fwd {
		if actions[n] != opt.Computed {
			continue
		}
		for _, p := range n.Parents {
			if _, retained := idx[p]; retained {
				childrenOf[p] = append(childrenOf[p], n)
			}
		}
	}
	outputs := map[*graph.Node]bool{}
	for _, o := range m.Outputs {
		outputs[o] = true
	}
	for _, n := range fwd {
		i := idx[n]
		if actions[n] == opt.Computed {
			for _, p := range n.Parents {
				consumers[idx[p]] = append(consumers[idx[p]], i)
			}
		}
		if outputs[n] {
			consumers[i] = append(consumers[i], loss)
		}
		if bi, ok := bwdIdx[n]; ok {
			consumers[i] = append(consumers[i], bi)
			for _, p := range n.Parents {
				consumers[idx[p]] = append(consumers[idx[p]], bi)
			}
			fedFromLoss := true
			for _, s := range childrenOf[n] {
				if sb, ok := bwdIdx[s]; ok {
					consumers[sb] = append(consumers[sb], bi)
					fedFromLoss = false
				}
			}
			if fedFromLoss || outputs[n] {
				consumers[loss] = append(consumers[loss], bi)
			}
		}
	}

	order := make([]int, 0, total)
	for i := 0; i < F; i++ {
		order = append(order, i)
	}
	order = append(order, loss)
	for i := F - 1; i >= 0; i-- {
		if bi, ok := bwdIdx[fwd[i]]; ok {
			order = append(order, bi)
		}
	}
	pos := make([]int, total)
	for p, id := range order {
		pos[id] = p
	}
	lastUse := make([]int, total)
	for id := range lastUse {
		lastUse[id] = pos[id]
	}
	for id, cs := range consumers {
		for _, c := range cs {
			if pos[c] > lastUse[id] {
				lastUse[id] = pos[c]
			}
		}
	}

	var live, peak int64
	freeAt := make([][]int, len(order)+1)
	for id := range size {
		freeAt[lastUse[id]+1] = append(freeAt[lastUse[id]+1], id)
	}
	for p, id := range order {
		live += size[id]
		if live > peak {
			peak = live
		}
		for _, f := range freeAt[p+1] {
			live -= size[f]
		}
	}
	est.ActivationPeak = peak * int64(batch)
	return est
}

// randomWorkload is internal/verify's generator (verify_test.go), copied so
// seed 15 draws the 12 workloads TestSolversAndFusersAgree and verify's
// TestDerivedGroupFactsMatchFreshProfile draw: 2–6 models on a shared
// frozen trunk, private frozen middles, trainable heads.
func randomWorkload(t *testing.T, rng *rand.Rand, nModels int) []opt.WorkItem {
	t.Helper()
	trunkDepth := 1 + rng.Intn(3)
	trunkW := 4 + rng.Intn(8)
	trunkSeeds := make([]int64, trunkDepth)
	for i := range trunkSeeds {
		trunkSeeds[i] = rng.Int63()
	}
	batches := []int{8, 16}
	var items []opt.WorkItem
	for i := 0; i < nModels; i++ {
		m := graph.NewModel(fmt.Sprintf("rw%d", i))
		n := m.AddInput("in", trunkW)
		for d := 0; d < trunkDepth; d++ {
			n = m.AddNode(fmt.Sprintf("trunk%d", d), layers.NewDense(trunkW, trunkW, layers.ActNone, trunkSeeds[d]), n)
		}
		w := trunkW
		extra := rng.Intn(3)
		for d := 0; d < extra; d++ {
			nw := 4 + rng.Intn(8)
			n = m.AddNode(fmt.Sprintf("mid%d", d), layers.NewDense(w, nw, layers.ActNone, rng.Int63()), n)
			w = nw
		}
		head := m.AddNode("head", layers.NewDense(w, 2, layers.ActNone, rng.Int63()), n)
		head.Trainable = true
		m.SetOutputs(head)
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, opt.WorkItem{
			Model:     m,
			Prof:      prof,
			Epochs:    1 + rng.Intn(4),
			BatchSize: batches[rng.Intn(len(batches))],
		})
	}
	return items
}

// aliasedWorkload is five models whose parameters are shared in the ways the
// zoo's are not, so the merged profile's parameter table has work to do: a
// and b apply one frozen layer instance above their own trainable layers
// (two non-materializable nodes of a fused graph holding the same
// parameters); c holds a layer frozen that d trains (one parameter, frozen
// in one member and trained in another); c applies that layer twice; and e
// applies it twice to the same input (two nodes of one model, one
// expression, which every merge collapses).
func aliasedWorkload(t *testing.T) []opt.WorkItem {
	t.Helper()
	above := layers.NewDense(6, 6, layers.ActTanh, 71)
	tied := layers.NewDense(6, 6, layers.ActTanh, 72)
	build := func(name string, body func(m *graph.Model, in *graph.Node) *graph.Node) opt.WorkItem {
		m := graph.NewModel(name)
		top := body(m, m.AddInput("in", 6))
		head := m.AddNode("head", layers.NewDense(6, 2, layers.ActNone, int64(len(name))+80), top)
		head.Trainable = true
		m.SetOutputs(head)
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		return opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 8}
	}
	own := func(seed int64) func(*graph.Model, *graph.Node) *graph.Node {
		return func(m *graph.Model, in *graph.Node) *graph.Node {
			tr := m.AddNode("own", layers.NewDense(6, 6, layers.ActTanh, seed), in)
			tr.Trainable = true
			return m.AddNode("above", above, tr)
		}
	}
	return []opt.WorkItem{
		build("alias-a", own(61)),
		build("alias-bb", own(62)),
		build("alias-ccc", func(m *graph.Model, in *graph.Node) *graph.Node {
			return m.AddNode("twice", tied, m.AddNode("once", tied, in))
		}),
		build("alias-dddd", func(m *graph.Model, in *graph.Node) *graph.Node {
			tr := m.AddNode("trained", tied, in)
			tr.Trainable = true
			return tr
		}),
		build("alias-eeeee", func(m *graph.Model, in *graph.Node) *graph.Node {
			cat := m.AddNode("cat", layers.NewConcat(2), m.AddNode("left", tied, in), m.AddNode("right", tied, in))
			return m.AddNode("mix", layers.NewDense(12, 6, layers.ActTanh, 73), cat)
		}),
	}
}

// assertPlanMatchesOracle compares one flat plan and its flat memory
// estimate with what the oracles compute for the same profile and V: cost,
// the action of every node (unreachable ones must read Pruned), and all
// four MemoryEstimate terms.
func assertPlanMatchesOracle(t *testing.T, label string, plan *opt.Plan, sigs map[graph.Signature]bool, batch int, peak int64) {
	t.Helper()
	prof := plan.Prof
	want, wantCost, err := oracleSolveReusePlan(prof, sigs)
	if err != nil {
		t.Fatalf("%s: oracle: %v", label, err)
	}
	if plan.CostPerRecord != wantCost {
		t.Errorf("%s: cost %d, oracle %d", label, plan.CostPerRecord, wantCost)
	}
	if len(plan.Actions) != prof.Model.NumNodes() {
		t.Fatalf("%s: %d actions for %d nodes", label, len(plan.Actions), prof.Model.NumNodes())
	}
	for _, n := range prof.Model.Nodes() {
		if got := plan.Action(n); got != want[n] { // a node the oracle never saw is unreachable: Pruned
			t.Errorf("%s: node %q %v, oracle %v", label, n.Name, got, want[n])
		}
	}
	got := opt.EstimatePeakMemory(plan, batch, opt.AdamSlotBytes)
	if wantMem := oracleEstimatePeakMemory(prof, want, batch, opt.AdamSlotBytes); got != wantMem {
		t.Errorf("%s: memory estimate %+v, oracle %+v", label, got, wantMem)
	}
	if peak >= 0 && peak != got.Total() {
		t.Errorf("%s: group carries peak %d, its plan's estimate is %d", label, peak, got.Total())
	}
}

// TestFlatPlannerMatchesMapOracle is the differential test behind "dense
// node indices": on FTR-1/2/3, ATR and FTU at both scales under
// nautilus-plan's budgets, and on the 12 seed-15 random workloads, for V =
// ∅, MAT OPT's V, all of U and seeded random subsets of U (32; 4 under
// -short), every singleton's plan and memory estimate equal the oracles',
// and so do those of every group either fuser emits (under the three named
// V and the first four random ones) and, on workloads of at most six
// models, of every subset BuildGroup can merge. A five-model
// fixture with parameters shared across nodes and members rides along.
func TestFlatPlannerMatchesMapOracle(t *testing.T) {
	type row struct {
		name       string
		items      []opt.WorkItem
		mm         *mmg.MultiModel
		disk, mem  int64
		maxRecords int
	}
	var rows []row
	for _, scale := range []workloads.Scale{workloads.Mini, workloads.Paper} {
		hw := profile.DefaultHardware()
		if scale == workloads.Mini {
			hw = experiments.MiniHardware()
		}
		for _, spec := range workloads.All() {
			inst, err := spec.Build(scale, hw)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row{fmt.Sprintf("%s.%s", spec.Name, scale), inst.Items, inst.MM, 25 << 30, 10 << 30, 5000})
		}
	}
	unbudgeted := func(name string, items []opt.WorkItem) {
		models := make([]*graph.Model, len(items))
		for j, it := range items {
			models[j] = it.Model
		}
		mm, err := mmg.Build(models...)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name, items, mm, 1 << 50, 1 << 50, 600})
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 12; i++ {
		unbudgeted(fmt.Sprintf("random-%02d", i), randomWorkload(t, rng, 2+rng.Intn(5)))
	}
	unbudgeted("aliased-params", aliasedWorkload(t))
	subsets := 32
	if testing.Short() {
		subsets = 4
	}

	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			res, err := opt.OptimizeMaterialization(r.mm, r.items, opt.MatConfig{DiskBudgetBytes: r.disk, MaxRecords: r.maxRecords})
			if err != nil {
				t.Fatal(err)
			}
			var u []graph.Signature
			all := map[graph.Signature]bool{}
			for _, n := range r.mm.MaterializableNodes() {
				u = append(u, r.mm.Sig(n))
				all[r.mm.Sig(n)] = true
			}
			sort.Slice(u, func(i, j int) bool { return u[i] < u[j] })
			type vset struct {
				name string
				sigs map[graph.Signature]bool
				fuse bool // also run both fusers under it
			}
			vs := []vset{{"V=none", nil, true}, {"V=matopt", res.Sigs, true}, {"V=U", all, true}}
			sub := rand.New(rand.NewSource(int64(len(u))))
			for i := 0; i < subsets; i++ {
				sigs := map[graph.Signature]bool{}
				for _, s := range u {
					if sub.Intn(2) == 0 {
						sigs[s] = true
					}
				}
				// Fusing paper-scale workloads under all 32 takes the -race
				// leg minutes; the first four random subsets are fused too.
				vs = append(vs, vset{fmt.Sprintf("V=random%02d", i), sigs, i < 4})
			}

			checked := 0
			for _, v := range vs {
				for _, it := range r.items {
					plan, err := opt.SolveReusePlan(it.Prof, v.sigs)
					if err != nil {
						t.Fatal(err)
					}
					assertPlanMatchesOracle(t, fmt.Sprintf("%s %s", v.name, it.Model.Name), plan, v.sigs, it.BatchSize, -1)
					checked++
				}
				if v.fuse {
					// Algorithm 1's groups, and the partition search's.
					cfg := opt.FuseConfig{MemBudgetBytes: r.mem, OptimizerSlotBytes: opt.AdamSlotBytes}
					greedy, err := new(opt.Fuser).Fuse(r.items, v.sigs, cfg)
					if err != nil {
						t.Fatal(err)
					}
					enum, _, err := opt.FuseEnum(r.items, v.sigs, cfg, opt.EnumStateBudget/8)
					if err != nil {
						t.Fatal(err)
					}
					for name, groups := range map[string][]*opt.FusedGroup{"greedy": greedy, "enum": enum} {
						for _, g := range groups {
							assertPlanMatchesOracle(t, fmt.Sprintf("%s %s group %s", v.name, name, g.Name()), g.Plan, v.sigs, g.BatchSize(), g.PeakMemBytes)
							checked++
						}
					}
				}
				// Small workloads: every candidate group FUSE OPT could try,
				// fusible or not.
				for mask := 1; len(r.items) <= 6 && mask < 1<<len(r.items); mask++ {
					var members []opt.WorkItem
					for i, it := range r.items {
						if mask&(1<<i) != 0 && it.BatchSize == r.items[0].BatchSize {
							members = append(members, it)
						}
					}
					if len(members) < 2 {
						continue
					}
					g, err := opt.BuildGroup(members, v.sigs, opt.ReusePlan, opt.AdamSlotBytes)
					if err != nil {
						t.Fatal(err)
					}
					assertPlanMatchesOracle(t, fmt.Sprintf("%s subset %b", v.name, mask), g.Plan, v.sigs, g.BatchSize(), g.PeakMemBytes)
					checked++
				}
				if t.Failed() {
					t.FailNow() // one divergent V says it all
				}
			}
			t.Logf("%d plans and memory estimates checked against the map oracles", checked)
		})
	}
}
