package opt

import (
	"fmt"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/mincut"
	"nautilus/internal/mmg"
	"nautilus/internal/models"
	"nautilus/internal/profile"
)

// benchWorkload builds n paper-scale feature-transfer candidates, cycling
// through strats (by default three of FTR-1's).
func benchWorkload(b *testing.B, n int, strats ...models.FeatureStrategy) ([]WorkItem, *mmg.MultiModel) {
	b.Helper()
	hub := models.NewBERTHub(models.BERTBase())
	if len(strats) == 0 {
		strats = []models.FeatureStrategy{models.FeatLastHidden, models.FeatSecondLastHidden, models.FeatSumLast4}
	}
	var items []WorkItem
	var ms []*graph.Model
	for i := 0; i < n; i++ {
		m, err := hub.FeatureTransferModel(fmt.Sprintf("b%d", i), strats[i%len(strats)], 9, int64(300+i))
		if err != nil {
			b.Fatal(err)
		}
		prof, err := profile.Profile(m, profile.DefaultHardware())
		if err != nil {
			b.Fatal(err)
		}
		items = append(items, WorkItem{Model: m, Prof: prof, Epochs: 5, BatchSize: 16, LR: 5e-5})
		ms = append(ms, m)
	}
	multi, err := mmg.Build(ms...)
	if err != nil {
		b.Fatal(err)
	}
	return items, multi
}

func BenchmarkSolveReusePlanBERTBase(b *testing.B) {
	items, mm := benchWorkload(b, 1)
	sigs := map[graph.Signature]bool{}
	for _, n := range mm.MaterializableNodes() {
		sigs[mm.Sig(n)] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveReusePlan(items[0].Prof, sigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeMaterialization12Models(b *testing.B) {
	items, mm := benchWorkload(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OptimizeMaterialization(mm, items, MatConfig{
			DiskBudgetBytes: 25 << 30, MaxRecords: 5000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFuseModels12(b *testing.B) {
	items, mm := benchWorkload(b, 12)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 25 << 30, MaxRecords: 5000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fuseModels(items, res.Sigs, FuseConfig{MemBudgetBytes: 10 << 30, OptimizerSlotBytes: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGroupPair prices one FUSE OPT trial pair at paper scale:
// two FTR-3 candidates (BERT-base trunk, concat-last-4 feature, own heads)
// under the V that MAT OPT picks for them, on a warm scratch with the Fuse
// call's numbering — the merged view, the reuse-plan solve and the memory
// replay, no graph. plan_zoo prices 4 246 such groups a session
// (opt.fuse_states) and builds a graph only for the 92 it emits, so this
// ns/op and allocs/op are the per-trial numbers behind its opt.fuse_s.
func BenchmarkBuildGroupPair(b *testing.B) {
	items, mm := benchWorkload(b, 2, models.FeatConcatLast4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 25 << 30, MaxRecords: 5000})
	if err != nil {
		b.Fatal(err)
	}
	sc, nb := new(scratch), number(items)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.price(nb, items, res.Sigs, ReusePlan, AdamSlotBytes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadCost12Models is one evaluation of MAT OPT's objective —
// one cost-only min-cut per structural class: three for these twelve
// models, four to a feature strategy — for the loadable set MAT OPT ends
// on. The B&B and its greedy incumbent make |U|+1 to a few hundred of these
// per replan.
func BenchmarkWorkloadCost12Models(b *testing.B) {
	items, mm := benchWorkload(b, 12)
	cands, err := candidates(mm, items)
	if err != nil {
		b.Fatal(err)
	}
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 25 << 30, MaxRecords: 5000})
	if err != nil {
		b.Fatal(err)
	}
	s := newMatSearch(new(scratch), cands, items)
	for c, cand := range cands {
		s.chosen[c] = res.Sigs[cand.Sig]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.cost(len(cands)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimatePeakMemoryFused is the Figure 5 replay of one fused
// group at paper scale: four FTR-3 candidates on a BERT-base trunk under the
// V MAT OPT picks for them. Every trial pricing ends in one.
func BenchmarkEstimatePeakMemoryFused(b *testing.B) {
	items, mm := benchWorkload(b, 4, models.FeatConcatLast4)
	res, err := OptimizeMaterialization(mm, items, MatConfig{DiskBudgetBytes: 25 << 30, MaxRecords: 5000})
	if err != nil {
		b.Fatal(err)
	}
	g, err := BuildGroup(items, res.Sigs, ReusePlan, AdamSlotBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if est := EstimatePeakMemory(g.Plan, g.BatchSize(), AdamSlotBytes); est.Total() != g.PeakMemBytes {
			b.Fatalf("estimate %d, group carries %d", est.Total(), g.PeakMemBytes)
		}
	}
}

func BenchmarkEnergyMinCut(b *testing.B) {
	// Representative reuse-plan energy: chain of 40 nodes with branching,
	// reset and solved on one reusable Energy as the planner does.
	b.ReportAllocs()
	var e mincut.Energy
	for i := 0; i < b.N; i++ {
		e.Reset(80)
		for v := 0; v < 80; v++ {
			e.AddUnary(v, int64(v%7), int64((v*13)%11))
			if v > 0 {
				e.AddImplication(v, v-1)
			}
		}
		if _, _, err := e.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
