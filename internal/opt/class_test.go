package opt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// planWith runs MAT OPT over the items at r records, then FUSE OPT under
// B_mem on the chosen set, as a replan does, and with enum the partition
// search oracle too.
func planWith(t *testing.T, enum bool, items []opt.WorkItem, diskBytes, memBytes int64, r int) {
	t.Helper()
	ms := make([]*graph.Model, len(items))
	for i, it := range items {
		ms[i] = it.Model
	}
	mm, err := mmg.Build(ms...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: diskBytes, MaxRecords: r})
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.FuseConfig{MemBudgetBytes: memBytes, OptimizerSlotBytes: opt.AdamSlotBytes}
	if _, err := new(opt.Fuser).Fuse(items, res.Sigs, cfg); err != nil {
		t.Fatal(err)
	}
	if enum {
		if _, _, err := opt.FuseEnum(items, res.Sigs, cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// requireAgreement fails the test on any disagreement the check saw, and
// when it saw fewer evaluations or class hits than the workload must give.
func requireAgreement(t *testing.T, c *opt.ClassPricingCheck, minMat, minHits int) {
	t.Helper()
	for i, m := range c.Mismatches {
		if i == 5 {
			t.Errorf("... and %d more", len(c.Mismatches)-i)
			break
		}
		t.Error(m)
	}
	if c.MatEvals < minMat || c.FuseHits < minHits {
		t.Errorf("re-priced %d MAT OPT evaluations and %d FUSE OPT class hits, want at least %d and %d", c.MatEvals, c.FuseHits, minMat, minHits)
	}
	t.Logf("re-priced %d MAT OPT evaluations and %d FUSE OPT class hits", c.MatEvals, c.FuseHits)
}

// TestClassPricingMatchesPerItem: pricing by structural class changes no
// number. Every MAT OPT evaluation (one min-cut per class, times the
// class's summed epochs) equals the sum over its items priced one by one,
// and every FUSE OPT trial answered from an equal class sequence has the
// actions, cost and peak of its own members priced afresh — on the five
// Table 3 workloads at paper scale under plan_zoo's budget points, on
// random fusion workloads and on the oracle's random workloads, and on
// fixtures whose profiles differ in one priced fact only (s_mem, a shared
// parameter's trainable flag), which a key that misses the fact would put
// in one class.
func TestClassPricingMatchesPerItem(t *testing.T) {
	const gb = 1 << 30
	t.Run("table3", func(t *testing.T) {
		for _, c := range []struct {
			spec          workloads.Spec
			diskGB, memGB int64
		}{
			{workloads.FTR1(), 5, 6},
			{workloads.FTR2(), 1, 4},
			{workloads.FTR3(), 25, 10},
			{workloads.FTR3(), 5, 6},
			{workloads.FTR3(), 1, 4},
			{workloads.ATR(), 25, 10},
			{workloads.FTU(), 25, 10},
		} {
			t.Run(fmt.Sprintf("%s_%dGB_%dGB", c.spec.Name, c.diskGB, c.memGB), func(t *testing.T) {
				inst, err := c.spec.Build(workloads.Paper, profile.DefaultHardware())
				if err != nil {
					t.Fatal(err)
				}
				check := opt.CheckClassPricing(t)
				// The partition search spends its whole state budget on
				// the larger grids, so it runs on FTR-3 only.
				for _, r := range []int{400, 1600} {
					planWith(t, len(inst.Items) <= 12, inst.Items, c.diskGB*gb, c.memGB*gb, r)
				}
				requireAgreement(t, check, 2, 2)
			})
		}
	})
	t.Run("random_fusion", func(t *testing.T) {
		check := opt.CheckClassPricing(t)
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			items := randomFusionWorkload(rng)
			planWith(t, true, items, int64(rng.Intn(1<<20)), int64(1)<<(27+rng.Intn(14)), 100)
		}
		// Every item's "own" layer is a frozen expression of its own, so no
		// two items share a class: only MAT OPT's evaluations are re-priced.
		requireAgreement(t, check, 25, 0)
	})
	t.Run("random_dags", func(t *testing.T) {
		check := opt.CheckClassPricing(t)
		rng := rand.New(rand.NewSource(15))
		for i := 0; i < 12; i++ {
			planWith(t, true, randomWorkload(t, rng, 2+rng.Intn(5)), int64(rng.Intn(1<<16)), 1<<30, 50)
		}
		planWith(t, true, aliasedWorkload(t), 1<<16, 1<<30, 50)
		requireAgreement(t, check, 13, 0)
	})
	t.Run("fixtures", func(t *testing.T) {
		// Five candidates on one shared frozen trunk with private trainable
		// heads: one class as built. b's head holds a larger activation and
		// c's profile trains the shared trunk parameter; d and e differ from
		// a in epochs alone.
		trunk := layers.NewDense(8, 16, layers.ActTanh, 91)
		var items []opt.WorkItem
		for i, name := range []string{"a", "b", "c", "d", "e"} {
			m := graph.NewModel(name)
			tr := m.AddNode("trunk", trunk, m.AddInput("in", 8))
			head := m.AddNode("head", layers.NewDense(16, 2, layers.ActNone, int64(92+i)), tr)
			head.Trainable = true
			m.SetOutputs(head)
			prof, err := profile.Profile(m, profile.DefaultHardware())
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, opt.WorkItem{Model: m, Prof: prof, Epochs: 1 + i/3*2 + i/4, BatchSize: 8})
		}
		items[1].Prof.Layer(items[1].Model.Nodes()[2]).MemBytes *= 1000
		trunkParam := items[2].Prof.Layer(items[2].Model.Nodes()[1]).Params[0]
		items[2].Prof.Param(trunkParam).Trainable = true
		check := opt.CheckClassPricing(t)
		planWith(t, true, items, 1<<20, 1<<30, 100)
		requireAgreement(t, check, 1, 1)
	})
}
