package opt_test

import (
	"fmt"
	"math/rand"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// oracleBuildGroup is BuildGroup as it was before FUSE OPT priced trials on
// views: build the merged graph and its derived profile first
// (mmg.BuildProfiled), then solve the reuse plan and replay its memory on
// that profile.
func oracleBuildGroup(members []opt.WorkItem, sigs map[graph.Signature]bool) (*opt.Plan, opt.MemoryEstimate, error) {
	profs := make([]*profile.ModelProfile, len(members))
	for i, it := range members {
		profs[i] = it.Prof
	}
	_, prof, err := mmg.BuildProfiled(profs...)
	if err != nil {
		return nil, opt.MemoryEstimate{}, err
	}
	plan, err := opt.SolveReusePlan(prof, sigs)
	if err != nil {
		return nil, opt.MemoryEstimate{}, err
	}
	return plan, opt.EstimatePeakMemory(plan, members[0].BatchSize, opt.AdamSlotBytes), nil
}

// TestTrialViewMatchesBuiltGroup is the differential test behind "trial
// merges are views": on the 12 seed-15 random workloads, the five Table 3
// workloads at paper scale, the greedy trap and the aliased-parameter
// fixture (also with mixed hardware), under V = ∅, MAT OPT's V and U, every
// singleton, pair and triple of each compatibility bucket priced the way Fuse
// prices it (one numbering of the workload, one scratch for every trial)
// equals the group built first and priced after (oracleBuildGroup): cost,
// every action, all four MemoryEstimate terms, and the peak the trial
// carries.
func TestTrialViewMatchesBuiltGroup(t *testing.T) {
	type row struct {
		name       string
		items      []opt.WorkItem
		mm         *mmg.MultiModel
		disk       int64
		maxRecords int
	}
	var rows []row
	unbudgeted := func(name string, items []opt.WorkItem) {
		models := make([]*graph.Model, len(items))
		for j, it := range items {
			models[j] = it.Model
		}
		mm, err := mmg.Build(models...)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{name, items, mm, 1 << 50, 600})
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 12; i++ {
		unbudgeted(fmt.Sprintf("random-%02d", i), randomWorkload(t, rng, 2+rng.Intn(5)))
	}
	for _, spec := range workloads.All() {
		inst, err := spec.Build(workloads.Paper, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row{spec.Name + ".paper", inst.Items, inst.MM, 25 << 30, 5000})
	}
	trap, _, err := opt.GreedyTrapWorkload()
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted("trap.fixture", trap)
	unbudgeted("aliased-params", aliasedWorkload(t))
	// Every member after the first profiled with a disk so fast that its
	// own c_load would make loading free: a merged view prices c_load at
	// the first member's hardware, as the merged profile does.
	mixed := aliasedWorkload(t)
	for i := 1; i < len(mixed); i++ {
		hw := profile.DefaultHardware()
		hw.DiskThroughput *= 1e6
		if mixed[i].Prof, err = profile.Profile(mixed[i].Model, hw); err != nil {
			t.Fatal(err)
		}
	}
	unbudgeted("aliased-params.mixed-hw", mixed)

	for _, r := range rows {
		r := r
		t.Run(r.name, func(t *testing.T) {
			res, err := opt.OptimizeMaterialization(r.mm, r.items, opt.MatConfig{DiskBudgetBytes: r.disk, MaxRecords: r.maxRecords})
			if err != nil {
				t.Fatal(err)
			}
			type bucketKey struct{ batch, epochs int }
			buckets := map[bucketKey][]opt.WorkItem{}
			var keys []bucketKey
			for _, it := range r.items {
				k := bucketKey{it.BatchSize, it.Epochs}
				if buckets[k] == nil {
					keys = append(keys, k)
				}
				buckets[k] = append(buckets[k], it)
			}
			all := map[graph.Signature]bool{}
			for _, n := range r.mm.MaterializableNodes() {
				all[r.mm.Sig(n)] = true
			}
			checked := 0
			for _, v := range []struct {
				name string
				sigs map[graph.Signature]bool
			}{{"V=none", nil}, {"V=matopt", res.Sigs}, {"V=U", all}} {
				pricer := opt.NewTrialPricer(r.items, v.sigs)
				check := func(members ...opt.WorkItem) {
					label := v.name
					for _, it := range members {
						label += " " + it.Model.Name
					}
					actions, cost, peak, mem, err := pricer.Price(members)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, wantMem, err := oracleBuildGroup(members, v.sigs)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					if cost != want.CostPerRecord {
						t.Errorf("%s: cost %d, built group's %d", label, cost, want.CostPerRecord)
					}
					if len(actions) != len(want.Actions) {
						t.Fatalf("%s: %d actions, built group has %d nodes", label, len(actions), len(want.Actions))
					}
					for i, n := range want.Model().Nodes() {
						if actions[i] != want.Actions[i] {
							t.Errorf("%s: node %d (%s) %v, built group's %v", label, i, n.Name, actions[i], want.Actions[i])
						}
					}
					if mem != wantMem || peak != wantMem.Total() {
						t.Errorf("%s: memory estimate %+v (peak %d), built group's %+v", label, mem, peak, wantMem)
					}
					if t.Failed() {
						t.FailNow() // one divergent group says it all
					}
					checked++
				}
				for _, k := range keys {
					b := buckets[k]
					for i := range b {
						check(b[i])
						for j := i + 1; j < len(b); j++ {
							check(b[i], b[j])
							for l := j + 1; l < len(b); l++ {
								check(b[i], b[j], b[l])
							}
						}
					}
				}
			}
			t.Logf("%d trial groups checked against the built groups", checked)
		})
	}
}
