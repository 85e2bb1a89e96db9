package main

import (
	"fmt"

	"nautilus/internal/core"
	"nautilus/internal/graph"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
	"nautilus/internal/verify"
	"nautilus/internal/workloads"
)

// planCase is one planner session of plan_zoo: a Table 3 workload at paper
// scale under one (B_disk, B_mem) point of the Figure 10 sweeps.
type planCase struct {
	spec           workloads.Spec
	diskGB, memGB  float64
	items          []opt.WorkItem
	firstHalf      *mmg.MultiModel
	cpCostPerModel map[string]int64
}

// planZooCases pairs the five Table 3 workloads with budget points so that
// the default (25 GB, 10 GB), a mid (5 GB, 6 GB) and a tight (1 GB, 4 GB)
// point each occur; the tight point makes MAT OPT's branch and bound and
// the fuser's memory check work hardest. FTR-3 plans in milliseconds and
// takes all three. All fifteen pairs would take 13 s a session on two
// cores, too long to repeat within one run.
func planZooCases() []planCase {
	return []planCase{
		{spec: workloads.FTR1(), diskGB: 5, memGB: 6},
		{spec: workloads.FTR2(), diskGB: 1, memGB: 4},
		{spec: workloads.FTR3(), diskGB: 25, memGB: 10},
		{spec: workloads.FTR3(), diskGB: 5, memGB: 6},
		{spec: workloads.FTR3(), diskGB: 1, memGB: 4},
		{spec: workloads.ATR(), diskGB: 25, memGB: 10},
		{spec: workloads.FTU(), diskGB: 25, memGB: 10},
	}
}

// Record counts of the evolution script: the planner starts at r = 400 and
// the third step's 1500 records push it past two doublings.
const (
	planInitialRecords = 400
	planGrownRecords   = 1500
)

func (c planCase) config() core.Config {
	cfg := core.DefaultConfig("")
	cfg.DiskBudgetBytes = int64(c.diskGB * float64(1<<30))
	cfg.MemBudgetBytes = int64(c.memGB * float64(1<<30))
	cfg.MaxRecords = planInitialRecords
	return cfg
}

// planZooSetup builds every case's candidate set, the merged graph of its
// first half (the planner session starts there) and, for the output check,
// each candidate's Current Practice cost.
func planZooSetup(layer map[string]float64) ([]planCase, error) {
	cases := planZooCases()
	for i := range cases {
		c := &cases[i]
		var inst *workloads.Instance
		d, err := timed(func() (err error) {
			inst, err = c.spec.Build(workloads.Paper, profile.DefaultHardware())
			return err
		})
		if err != nil {
			return nil, err
		}
		layer["workloads.build_s"] += d
		c.items = inst.Items
		half := len(c.items) / 2
		ms := make([]*graph.Model, half)
		for j, it := range c.items[:half] {
			ms[j] = it.Model
		}
		d, err = timed(func() (err error) {
			c.firstHalf, err = mmg.Build(ms...)
			return err
		})
		if err != nil {
			return nil, err
		}
		layer["mmg.build_s"] += d
		c.cpCostPerModel = map[string]int64{}
		for _, it := range c.items {
			c.cpCostPerModel[it.Model.Name] = opt.CurrentPracticePlan(it.Prof).CostPerRecord * int64(it.Epochs)
		}
	}
	return cases, nil
}

// planZooSession drives every case through the same evolution script, one
// replan after each event: first data (cold plan) → the second half of the
// grid arrives → data outgrows the backoff limit → a candidate is dropped.
// Step i of every case counts as "cycle" i, so first_cycle_s is the time of
// all cold plans and last_cycle_s that of all final incremental replans.
// The per-record plan cost of a whole epoch schedule is what opt.plan_cost
// sums.
func planZooSession(e *env, rec *recorder) (*sessionResult, error) {
	res := &sessionResult{layer: map[string]float64{}}
	var cases []planCase
	var err error
	res.setupS, err = timed(func() (err error) {
		cases, err = planZooSetup(res.layer)
		return err
	})
	if err != nil {
		return nil, err
	}
	const steps = 4
	res.cycles = make([]float64, steps)
	var replans []float64
	var planners []*core.Planner
	session := rec.start("session", -1, 0)
	t0 := now()
	for ci, c := range cases {
		cfg := c.config()
		half := len(c.items) / 2
		planner, err := core.NewPlanner(c.items[:half], c.firstHalf, cfg)
		if err != nil {
			return nil, err
		}
		planners = append(planners, planner)
		events := [steps]func() error{
			func() error { planner.GrowData(planInitialRecords); return nil },
			func() error { return planner.AddCandidates(c.items[half:]...) },
			func() error { planner.GrowData(planGrownRecords); return nil },
			func() error { return planner.RemoveCandidate(c.items[0].Model.Name) },
		}
		for step, event := range events {
			cyc := rec.start("cycle", session, step+1)
			evolve, err := rec.timed("core.evolve", cyc, step+1, event)
			if err != nil {
				return nil, fmt.Errorf("%s step %d: %w", c.spec.Name, step+1, err)
			}
			var wp *core.WorkloadPlan
			var delta *core.PlanDelta
			d, err := rec.timed("core.replan", cyc, step+1, func() (err error) {
				wp, delta, err = planner.Replan()
				return err
			})
			rec.end(cyc)
			if err != nil {
				return nil, fmt.Errorf("%s step %d: %w", c.spec.Name, step+1, err)
			}
			replans = append(replans, d)
			res.cycles[step] += evolve + d
			res.layer["core.evolve_s"] += evolve
			res.layer["core.replan_s"] += d
			res.layer["core.groups_checked"] += float64(delta.GroupsChecked)
			res.layer["core.groups"] += float64(len(wp.Groups))
			res.layer["core.materialized_sigs"] += float64(len(wp.MatSigs))
			res.layer["opt.mat_nodes"] += float64(wp.Stats.MatSolveNodes)
			res.layer["opt.fuse_states"] += float64(wp.Stats.Fuse.PairsEvaluated)
			res.layer["opt.plan_cost"] += float64(opt.TotalPlanCost(wp.Groups))
			res.plans = append(res.plans, planOutput{planCase: ci, step: step + 1, cost: opt.TotalPlanCost(wp.Groups), plan: wp, items: planner.Items(), cfg: cfg, r: planner.MaxRecords(), cp: c.cpCostPerModel})
		}
	}
	res.wall = since(t0)
	rec.end(session)
	res.ops = len(replans)
	res.work, res.workS = float64(len(replans)), res.wall
	res.layer["core.replans"] = float64(len(replans))
	res.layer["core.replan_p50_ms"] = 1000 * quantile(replans, 0.5)
	res.layer["core.replan_p80_ms"] = 1000 * quantile(replans, 0.8)
	if rec != nil {
		res.layer["bench.unattributed_pct"] = unattributedPct(rec.spans, session)
		// The stage probes see each case's final candidate set and r.
		for i, p := range planners {
			if err := probePlanning(res.layer, p.Items(), p.MultiModel(), cases[i].config(), p.MaxRecords()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// planOutput is one replan's result, kept for the output check.
type planOutput struct {
	planCase, step int
	cost           int64
	plan           *core.WorkloadPlan
	items          []opt.WorkItem
	cfg            core.Config
	r              int
	cp             map[string]int64
}

// check re-verifies the plan from outside the planner: the groups are a
// legal partition within B_mem, the chosen set fits B_disk at r records,
// and the plan costs no more than training every candidate the Current
// Practice way.
func (p planOutput) check() error {
	if err := verify.Groups(p.plan.Groups, p.items, p.cfg.MemBudgetBytes, p.plan.MatSigs); err != nil {
		return err
	}
	if p.plan.Stats.StorageBytes > p.cfg.DiskBudgetBytes {
		return fmt.Errorf("materialized set needs %d bytes at r=%d, B_disk is %d", p.plan.Stats.StorageBytes, p.r, p.cfg.DiskBudgetBytes)
	}
	var cp int64
	for _, it := range p.items {
		cp += p.cp[it.Model.Name]
	}
	if p.cost > cp {
		return fmt.Errorf("plan costs %d per record, Current Practice %d", p.cost, cp)
	}
	return nil
}
