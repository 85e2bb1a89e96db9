package experiments

import (
	"fmt"
	"io"

	"nautilus/internal/core"
	"nautilus/internal/opt"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

// FusionResult pins enumerated fusion-plan quality against the greedy
// Algorithm 1 baseline, on two workloads: the constructed greedy-trap
// fixture (where enumeration must win strictly) and a paper-scale bench
// workload replayed on the cost clock.
type FusionResult struct {
	// Greedy-trap fixture (opt.GreedyTrapWorkload).
	FixtureGreedyCost     int64   `json:"fixture_greedy_cost"`
	FixtureEnumCost       int64   `json:"fixture_enum_cost"`
	FixtureImprovementPct float64 `json:"fixture_improvement_pct"`
	FixtureGreedyGroups   int     `json:"fixture_greedy_groups"`
	FixtureEnumGroups     int     `json:"fixture_enum_groups"`

	// Paper-scale bench workload, both strategies through the full
	// planner pipeline.
	Workload     string  `json:"workload"`
	GreedyCost   int64   `json:"greedy_cost"`
	EnumCost     int64   `json:"enum_cost"`
	CostRatio    float64 `json:"cost_ratio"` // enum / greedy, ≤ 1 by construction
	GreedyGroups int     `json:"greedy_groups"`
	EnumGroups   int     `json:"enum_groups"`
	// Simulated end-to-end seconds on the cost clock (includes wall-clock
	// optimizer time, so not regression-gated).
	GreedySimSec float64 `json:"greedy_sim_sec"`
	EnumSimSec   float64 `json:"enum_sim_sec"`
	// Search counters of both strategies' bench runs.
	GreedyStats opt.FuseStats `json:"greedy_stats"`
	EnumStats   opt.FuseStats `json:"enum_stats"`
}

// fusionWorkload is the bench workload: FTR-3's (batch, epochs) grid
// yields four compatibility buckets of three candidates each — small
// enough to enumerate exhaustively, large enough to exercise the DP.
func fusionWorkload() workloads.Spec { return workloads.FTR3() }

// Fusion runs the fusion-strategy comparison. It errors if enumeration
// fails to beat greedy strictly on the fixture, costs more than greedy
// anywhere, violates B_mem, or produces a plan the verifier rejects —
// the experiment doubles as an end-to-end optimality check.
func Fusion() (*FusionResult, error) {
	r := &FusionResult{}

	// Fixture leg: both fuser settings under the fixture's separating
	// memory budget.
	items, memBudget, err := opt.GreedyTrapWorkload()
	if err != nil {
		return nil, err
	}
	fixture := map[string][]*opt.FusedGroup{}
	for _, name := range []string{opt.FuserGreedy, opt.FuserEnum} {
		fuser, err := opt.NewFuser(name, 0)
		if err != nil {
			return nil, err
		}
		plan, err := fuser.Fuse(items, nil, opt.FuseConfig{MemBudgetBytes: memBudget, OptimizerSlotBytes: opt.AdamSlotBytes})
		if err != nil {
			return nil, err
		}
		if err := verify.Groups(plan, items, memBudget, nil); err != nil {
			return nil, fmt.Errorf("experiments: fixture %s plan rejected: %w", name, err)
		}
		fixture[name] = plan
	}
	greedyFix, enumFix := fixture[opt.FuserGreedy], fixture[opt.FuserEnum]
	r.FixtureGreedyCost = opt.TotalPlanCost(greedyFix)
	r.FixtureEnumCost = opt.TotalPlanCost(enumFix)
	r.FixtureGreedyGroups = len(greedyFix)
	r.FixtureEnumGroups = len(enumFix)
	if r.FixtureEnumCost >= r.FixtureGreedyCost {
		return nil, fmt.Errorf("experiments: enum cost %d not strictly below greedy %d on the trap fixture",
			r.FixtureEnumCost, r.FixtureGreedyCost)
	}
	r.FixtureImprovementPct = 100 * (1 - float64(r.FixtureEnumCost)/float64(r.FixtureGreedyCost))

	// Bench leg: the full planner pipeline (MAT OPT + FUSE OPT + verify)
	// on a paper-scale workload, replayed on the cost clock.
	spec := fusionWorkload()
	inst, err := PaperInstance(spec)
	if err != nil {
		return nil, err
	}
	r.Workload = spec.Name
	type leg struct {
		fuser string
		cost  *int64
		sim   *float64
		n     *int
		stats *opt.FuseStats
	}
	legs := []leg{
		{opt.FuserGreedy, &r.GreedyCost, &r.GreedySimSec, &r.GreedyGroups, &r.GreedyStats},
		{opt.FuserEnum, &r.EnumCost, &r.EnumSimSec, &r.EnumGroups, &r.EnumStats},
	}
	for _, l := range legs {
		cfg := PaperConfig(core.Nautilus)
		cfg.Fuser = l.fuser
		sim, wp, err := SimulateApproach(inst, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fusion %s leg: %w", l.fuser, err)
		}
		for _, g := range wp.Groups {
			if len(g.Items) > 1 && g.PeakMemBytes > cfg.MemBudgetBytes {
				return nil, fmt.Errorf("experiments: %s group %q exceeds B_mem: %d > %d",
					l.fuser, g.Name(), g.PeakMemBytes, cfg.MemBudgetBytes)
			}
		}
		*l.cost = opt.TotalPlanCost(wp.Groups)
		*l.sim = sim.TotalSec()
		*l.n = len(wp.Groups)
		*l.stats = wp.Stats.Fuse
	}
	if r.EnumCost > r.GreedyCost {
		return nil, fmt.Errorf("experiments: enum plan cost %d exceeds greedy %d on %s",
			r.EnumCost, r.GreedyCost, r.Workload)
	}
	r.CostRatio = float64(r.EnumCost) / float64(r.GreedyCost)
	return r, nil
}

// PrintFusion renders the comparison.
func PrintFusion(w io.Writer, r *FusionResult) error {
	p := &printer{w: w}
	p.printf("Fusion plan enumeration vs greedy Algorithm 1\n\n")
	p.printf("greedy-trap fixture (4 models, pairwise-fusible budget):\n")
	p.printf("  %-22s %14s %8s\n", "strategy", "plan cost", "groups")
	p.printf("  %-22s %14d %8d\n", "greedy", r.FixtureGreedyCost, r.FixtureGreedyGroups)
	p.printf("  %-22s %14d %8d   (%.1f%% cheaper)\n", "enum", r.FixtureEnumCost, r.FixtureEnumGroups, r.FixtureImprovementPct)
	p.printf("\nbench workload %s (paper scale, cost-clock replay):\n", r.Workload)
	p.printf("  %-22s %14s %8s %12s\n", "strategy", "plan cost", "groups", "sim total")
	p.printf("  %-22s %14d %8d %11.1fs\n", "greedy", r.GreedyCost, r.GreedyGroups, r.GreedySimSec)
	p.printf("  %-22s %14d %8d %11.1fs   (cost ratio %.4f)\n", "enum", r.EnumCost, r.EnumGroups, r.EnumSimSec, r.CostRatio)
	p.printf("\nenum search: %d DP states, %d groups built, %d memo hits, %d bound prunings, %d fallbacks\n",
		r.EnumStats.StatesExplored, r.EnumStats.PairsEvaluated, r.EnumStats.MemoHits,
		r.EnumStats.BoundPrunings, r.EnumStats.Fallbacks)
	p.printf("greedy search: %d rounds, %d pairs evaluated, %d rejected\n",
		r.GreedyStats.Rounds, r.GreedyStats.PairsEvaluated, r.GreedyStats.PairsRejected)
	return p.err
}
