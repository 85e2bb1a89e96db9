package verify_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// assertDerivedEqualsFresh is the oracle for opt.BuildGroup's merged graph
// and its derived profile: the path BuildGroup took before profiles became
// the source of a merged graph's facts — mmg.Build over the bare models
// (fresh signatures, a validated merged graph) and profile.Profile over the
// result (fresh shapes, FLOPs, sizes, multipliers) — compared field by
// field, node by node in graph order.
func assertDerivedEqualsFresh(t *testing.T, label string, g *opt.FusedGroup) {
	t.Helper()
	models := make([]*graph.Model, len(g.Items))
	names := make([]string, len(g.Items))
	for i, it := range g.Items {
		models[i] = it.Model
		names[i] = it.Model.Name
	}
	label = fmt.Sprintf("%s %v", label, names)
	want, err := mmg.Build(models...)
	if err != nil {
		t.Fatalf("%s: oracle merge: %v", label, err)
	}
	wantProf, err := profile.Profile(want.Graph, g.Items[0].Prof.HW)
	if err != nil {
		t.Fatalf("%s: oracle profile: %v", label, err)
	}
	got, gotProf := g.MM, g.Plan.Prof

	if got.Graph.Name != want.Graph.Name {
		t.Errorf("%s: merged graph named %q, want %q", label, got.Graph.Name, want.Graph.Name)
	}
	if !reflect.DeepEqual(got.Models, want.Models) {
		t.Errorf("%s: MultiModel.Models differ", label)
	}
	wn, gn := want.Graph.Nodes(), got.Graph.Nodes()
	if len(gn) != len(wn) {
		t.Fatalf("%s: %d merged nodes, want %d", label, len(gn), len(wn))
	}
	wIdx, gIdx := map[*graph.Node]int{}, map[*graph.Node]int{}
	for i := range wn {
		wIdx[wn[i]], gIdx[gn[i]] = i, i
	}
	indices := func(idx map[*graph.Node]int, nodes []*graph.Node) []int {
		out := make([]int, len(nodes))
		for i, n := range nodes {
			j, ok := idx[n]
			if !ok {
				j = -1
			}
			out[i] = j
		}
		return out
	}
	if g, w := indices(gIdx, got.Graph.Outputs), indices(wIdx, want.Graph.Outputs); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: outputs at nodes %v, want %v", label, g, w)
	}
	if g, w := len(gotProf.Layers), len(wantProf.Layers); g != w {
		t.Fatalf("%s: ModelProfile.Layers has %d entries, want %d", label, g, w)
	}
	// The parameter table, entry by entry: same parameters in the same
	// first-use order, so the per-layer ids below mean the same thing.
	if g, w := gotProf.NumParams(), wantProf.NumParams(); g != w {
		t.Fatalf("%s: parameter table has %d entries, want %d", label, g, w)
	}
	for id := int32(0); int(id) < wantProf.NumParams(); id++ {
		if g, w := *gotProf.Param(id), *wantProf.Param(id); g != w {
			t.Errorf("%s: parameter %d is %+v, want %+v", label, id, g, w)
		}
	}
	if gotProf.Model != got.Graph {
		t.Errorf("%s: derived profile is not over the merged graph", label)
	}
	if gotProf.HW != wantProf.HW {
		t.Errorf("%s: derived profile HW %+v, want %+v", label, gotProf.HW, wantProf.HW)
	}

	for i := range wn {
		w, g := wn[i], gn[i]
		at := fmt.Sprintf("%s: node %d (%s)", label, i, w.Name)
		if g.Name != w.Name || g.Layer != w.Layer || g.Trainable != w.Trainable {
			t.Errorf("%s: got (%s, %p, trainable=%v), want (%s, %p, trainable=%v)", at, g.Name, g.Layer, g.Trainable, w.Name, w.Layer, w.Trainable)
		}
		if gp, wp := indices(gIdx, g.Parents), indices(wIdx, w.Parents); !reflect.DeepEqual(gp, wp) {
			t.Errorf("%s: parents at nodes %v, want %v", at, gp, wp)
		}
		if got.Sig(g) != want.Sig(w) {
			t.Errorf("%s: MultiModel.Sig %s, want %s", at, got.Sig(g), want.Sig(w))
		}
		if !reflect.DeepEqual(got.SourcesOf(g), want.SourcesOf(w)) {
			t.Errorf("%s: SourcesOf %v, want %v", at, got.SourcesOf(g), want.SourcesOf(w))
		}
		if g.Index() != i {
			t.Errorf("%s: merged node reports Index() %d", at, g.Index())
		}
		gl, wl := gotProf.Layer(g), wantProf.Layer(w)
		if gl.Node != g {
			t.Errorf("%s: LayerProfile.Node points at %p, not the merged node", at, gl.Node)
		}
		// Every remaining field at once, so a field added to LayerProfile
		// and not derived fails here.
		gv, wv := *gl, *wl
		gv.Node, wv.Node = nil, nil
		if !reflect.DeepEqual(gv, wv) {
			t.Errorf("%s: LayerProfile %+v, want %+v", at, gv, wv)
		}
	}
	for _, m := range models {
		for _, n := range m.Nodes() {
			gi, gok := gIdx[got.NodeOf(m, n)]
			wi, wok := wIdx[want.NodeOf(m, n)]
			if gi != wi || !gok || !wok {
				t.Errorf("%s: NodeOf[%s][%s] is merged node %d, want %d", label, m.Name, n.Name, gi, wi)
			}
		}
	}
}

// replayFuse walks FUSE OPT's search space over items through
// opt.BuildGroup, handing check every group it builds, and returns the
// partition Algorithm 1 ends on. Per compatibility bucket (equal batch size
// and epochs) that is: every singleton; every pair of current groups
// Algorithm 1 tries in every round, members concatenated as it concatenates
// them, the best strictly positive gain within B_mem merging (earliest pair
// on ties); and, for buckets of at most six members, every subset in the
// bit order over name-sorted members that the enum search uses.
func replayFuse(t *testing.T, items []opt.WorkItem, sigs map[graph.Signature]bool, mem int64, check func(*opt.FusedGroup)) [][]string {
	t.Helper()
	build := func(members []opt.WorkItem) *opt.FusedGroup {
		g, err := opt.BuildGroup(members, sigs, opt.ReusePlan, opt.AdamSlotBytes)
		if err != nil {
			t.Fatal(err)
		}
		check(g)
		return g
	}
	cost := func(g *opt.FusedGroup) int64 { return g.Plan.CostPerRecord * int64(g.Epochs()) }

	type bucketKey struct{ batch, epochs int }
	buckets := map[bucketKey][]*opt.FusedGroup{}
	for _, it := range items {
		k := bucketKey{it.BatchSize, it.Epochs}
		buckets[k] = append(buckets[k], build([]opt.WorkItem{it}))
	}
	var partition [][]string
	for _, groups := range buckets {
		if n := len(groups); n <= 6 {
			sorted := append([]*opt.FusedGroup(nil), groups...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i].Items[0].Model.Name < sorted[j].Items[0].Model.Name })
			for mask := 1; mask < 1<<uint(n); mask++ {
				var members []opt.WorkItem
				for i := 0; i < n; i++ {
					if mask&(1<<uint(i)) != 0 {
						members = append(members, sorted[i].Items[0])
					}
				}
				if len(members) > 1 {
					build(members)
				}
			}
		}

		type pair struct{ a, b *opt.FusedGroup }
		tried := map[pair]*opt.FusedGroup{}
		for {
			var bestI, bestJ int
			var best *opt.FusedGroup
			var bestGain int64
			for i := 0; i < len(groups); i++ {
				for j := i + 1; j < len(groups); j++ {
					gi, gj := groups[i], groups[j]
					fused := tried[pair{gi, gj}]
					if fused == nil {
						fused = build(append(append([]opt.WorkItem(nil), gi.Items...), gj.Items...))
						tried[pair{gi, gj}] = fused
					}
					gain := cost(gi) + cost(gj) - cost(fused)
					if gain > 0 && fused.PeakMemBytes <= mem && gain > bestGain {
						bestGain, bestI, bestJ, best = gain, i, j, fused
					}
				}
			}
			if best == nil {
				break
			}
			next := groups[:0:0]
			for k, g := range groups {
				if k != bestI && k != bestJ {
					next = append(next, g)
				}
			}
			groups = append(next, best)
		}
		for _, g := range groups {
			partition = append(partition, memberNames(g))
		}
	}
	sortPartition(partition)
	return partition
}

func memberNames(g *opt.FusedGroup) []string {
	names := make([]string, len(g.Items))
	for i, it := range g.Items {
		names[i] = it.Model.Name
	}
	return names
}

func sortPartition(p [][]string) {
	sort.Slice(p, func(i, j int) bool { return strings.Join(p[i], "|") < strings.Join(p[j], "|") })
}

// TestDerivedGroupFactsMatchFreshProfile is the differential test behind
// "profile each candidate once": on the golden-plan workloads (FTR-3, ATR
// and FTU at both scales under nautilus-plan's budgets, and the greedy
// trap) and the 12 seeded random workloads of TestSolversAndFusersAgree,
// every group replayFuse builds and every group either fuser emits carries
// the merged graph and profile the fresh-profile oracle computes. The
// replay's partition must be the greedy fuser's, so the pairs it tried are
// the pairs Algorithm 1 tried.
func TestDerivedGroupFactsMatchFreshProfile(t *testing.T) {
	type row struct {
		name  string
		items []opt.WorkItem
		sigs  map[graph.Signature]bool
		mem   int64
	}
	var rows []row
	matOpt := func(items []opt.WorkItem, mm *mmg.MultiModel, disk int64, r int) map[graph.Signature]bool {
		res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: disk, MaxRecords: r})
		if err != nil {
			t.Fatal(err)
		}
		return res.Sigs
	}
	for _, scale := range []workloads.Scale{workloads.Mini, workloads.Paper} {
		hw := profile.DefaultHardware()
		if scale == workloads.Mini {
			hw = experiments.MiniHardware()
		}
		for _, spec := range []workloads.Spec{workloads.FTR3(), workloads.ATR(), workloads.FTU()} {
			inst, err := spec.Build(scale, hw)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s.%s", spec.Name, scale)
			rows = append(rows,
				row{name + ".nautilus", inst.Items, matOpt(inst.Items, inst.MM, 25<<30, 5000), 10 << 30},
				row{name + ".nautilus_no_mat", inst.Items, nil, 10 << 30})
		}
	}
	trap, trapBudget, err := opt.GreedyTrapWorkload()
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, row{"trap.fixture", trap, nil, trapBudget})
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 12; i++ {
		items := randomWorkload(t, rng, 2+rng.Intn(5))
		models := make([]*graph.Model, len(items))
		for j, it := range items {
			models[j] = it.Model
		}
		mm, err := mmg.Build(models...)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{fmt.Sprintf("random-%02d", i), items, matOpt(items, mm, 1<<50, 600), 1 << 50})
	}

	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			checked := 0
			check := func(g *opt.FusedGroup) {
				assertDerivedEqualsFresh(t, r.name, g)
				if t.Failed() {
					t.FailNow() // one divergent group says it all
				}
				checked++
			}
			replayed := replayFuse(t, r.items, r.sigs, r.mem, check)
			for _, name := range []string{opt.FuserGreedy, opt.FuserEnum} {
				fuser, err := opt.NewFuser(name, opt.DefaultFuseStateBudget/8)
				if err != nil {
					t.Fatal(err)
				}
				groups, err := fuser.Fuse(r.items, r.sigs, opt.FuseConfig{MemBudgetBytes: r.mem, OptimizerSlotBytes: opt.AdamSlotBytes})
				if err != nil {
					t.Fatal(err)
				}
				var partition [][]string
				for _, g := range groups {
					check(g)
					partition = append(partition, memberNames(g))
				}
				sortPartition(partition)
				if name == opt.FuserGreedy && !reflect.DeepEqual(partition, replayed) {
					t.Errorf("replay ended on %v, the greedy fuser on %v: the replay did not follow Algorithm 1", replayed, partition)
				}
			}
			t.Logf("%d groups checked against the fresh-profile oracle", checked)
		})
	}
}
