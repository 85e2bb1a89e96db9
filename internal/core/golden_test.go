package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/experiments"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plans from the plans this tree produces")

// renderPlan is a workload plan without anything that varies between runs:
// V, the fuser's search counters, and per group its cost, peak-memory
// estimate, action counts and members in plan order.
func renderPlan(wp *core.WorkloadPlan) string {
	var b strings.Builder
	sigs := make([]string, 0, len(wp.MatSigs))
	for sig := range wp.MatSigs {
		sigs = append(sigs, sig.String())
	}
	sort.Strings(sigs)
	fmt.Fprintf(&b, "V %d\n", len(sigs))
	for _, s := range sigs {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	fu := wp.Stats.Fuse
	fmt.Fprintf(&b, "fuse strategy=%q rounds=%d built=%d rejected=%d states=%d memo_hits=%d bound_prunings=%d fallbacks=%d\n",
		fu.Strategy, fu.Rounds, fu.PairsEvaluated, fu.PairsRejected, fu.StatesExplored, fu.MemoHits, fu.BoundPrunings, fu.Fallbacks)
	fmt.Fprintf(&b, "groups %d\n", len(wp.Groups))
	for i, g := range wp.Groups {
		pruned, computed, loaded := g.Plan.CountActions()
		fmt.Fprintf(&b, "group %d batch=%d epochs=%d cost_per_record=%d peak_mem_bytes=%d computed=%d loaded=%d pruned=%d\n",
			i+1, g.BatchSize(), g.Epochs(), g.Plan.CostPerRecord, g.PeakMemBytes, computed, loaded, pruned)
		for _, it := range g.Items {
			fmt.Fprintf(&b, "  %s\n", it.Model.Name)
		}
	}
	return b.String()
}

// TestGoldenPlans pins the planner's decisions — nautilus-plan's
// configuration (25 GB / 10 GB, r = 5000) for every approach on FTR-3, ATR
// and FTU at both scales, the enum fuser on the Nautilus rows, and both
// fusers on the greedy trap — against files generated at commit f5f4ddc, so
// a planner refactor proves "plans identical" by running this test.
// `go test ./internal/core -run GoldenPlans -update` rewrites them.
func TestGoldenPlans(t *testing.T) {
	type row struct {
		file  string
		items []opt.WorkItem
		mm    *mmg.MultiModel
		cfg   core.Config
	}
	var rows []row
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
			for _, approach := range core.Approaches() {
				cfg := core.DefaultConfig("")
				cfg.Approach = approach
				cfg.HW = hw
				rows = append(rows, row{fmt.Sprintf("%s.%s.%s.txt", spec.Name, scale, approach), inst.Items, inst.MM, cfg})
				if approach == core.Nautilus {
					cfg.Fuser = opt.FuserEnum
					rows = append(rows, row{fmt.Sprintf("%s.%s.%s.enum.txt", spec.Name, scale, approach), inst.Items, inst.MM, cfg})
				}
			}
		}
	}
	trap, trapBudget, err := opt.GreedyTrapWorkload()
	if err != nil {
		t.Fatal(err)
	}
	trapModels := make([]*graph.Model, len(trap))
	for i, it := range trap {
		trapModels[i] = it.Model
	}
	trapMM, err := mmg.Build(trapModels...)
	if err != nil {
		t.Fatal(err)
	}
	for _, fuser := range []string{opt.FuserGreedy, opt.FuserEnum} {
		cfg := core.DefaultConfig("")
		cfg.Approach = core.NautilusNoMat
		cfg.MemBudgetBytes = trapBudget
		cfg.Fuser = fuser
		rows = append(rows, row{fmt.Sprintf("trap.fixture.%s.%s.txt", cfg.Approach, fuser), trap, trapMM, cfg})
	}

	for _, r := range rows {
		r := r
		t.Run(strings.TrimSuffix(r.file, ".txt"), func(t *testing.T) {
			wp, err := core.PlanWorkload(r.items, r.mm, r.cfg, 5000)
			if err != nil {
				t.Fatal(err)
			}
			got := renderPlan(wp)
			path := filepath.Join("testdata", "plans", r.file)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("plan differs from %s\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}
