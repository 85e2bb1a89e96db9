package opt

import (
	"fmt"
	"time"

	"nautilus/internal/graph"
	"nautilus/internal/milp"
	"nautilus/internal/mmg"
)

// SolveMILP is MAT OPT as the paper states it: the joint MILP of Section
// 4.2.2 (Equations 8–10) solved by the generic simplex + branch & bound of
// internal/milp, its chosen set V derived into a result as
// OptimizeMaterialization derives B&B's. It is the oracle B&B over min-cut
// is checked against: tractable at mini scale and on FTR-3, minutes per
// binding budget point from 12 paper-scale models up.
func SolveMILP(mm *mmg.MultiModel, items []WorkItem, cfg MatConfig) (*MatResult, error) {
	start := time.Now()
	if cfg.MaxRecords <= 0 {
		return nil, fmt.Errorf("opt: MaxRecords must be positive")
	}
	cands, err := candidates(mm, items)
	if err != nil {
		return nil, err
	}
	chosen, err := solveMILP(cands, items, cfg)
	if err != nil {
		return nil, err
	}
	res, err := newMatResult(cands, chosen, items, cfg)
	if err != nil {
		return nil, err
	}
	res.NodesExplored = 1
	res.SolveTime = time.Since(start)
	return res, nil
}

// solveMILP builds and solves the joint MILP of Section 4.2.2
// (Equations 8–10) with the generic simplex + branch & bound solver.
func solveMILP(cands []MatCandidate, items []WorkItem, cfg MatConfig) (map[graph.Signature]bool, error) {
	p, zVar := buildMILP(cands, items, cfg)
	sol, err := milp.Solve(p, milp.Options{})
	if err != nil {
		return nil, err
	}
	if sol.Status != milp.Optimal {
		return nil, fmt.Errorf("opt: MILP status %v", sol.Status)
	}
	chosen := map[graph.Signature]bool{}
	for sig, v := range zVar {
		if sol.X[v] > 0.5 {
			chosen[sig] = true
		}
	}
	return chosen, nil
}

// buildMILP constructs the paper's MILP (Equations 8–10): binary X_{i,j}
// (layer present), Y_{i,j} (layer computed), Z_k (candidate materialized),
// with the storage-budget and structural constraints. It returns the
// problem and the Z variable index per candidate signature.
func buildMILP(cands []MatCandidate, items []WorkItem, cfg MatConfig) (*milp.Problem, map[graph.Signature]int) {
	p := &milp.Problem{}
	r := float64(cfg.MaxRecords)

	zVar := map[graph.Signature]int{}
	newVar := func(obj float64) int {
		v := p.NumVars
		p.NumVars++
		p.Minimize = append(p.Minimize, obj)
		p.Binary = append(p.Binary, true)
		return v
	}
	for _, c := range cands {
		zVar[c.Sig] = newVar(0)
	}

	for _, it := range items {
		scale := r * float64(it.Epochs)
		reachable := it.Prof.Model.Reachable()
		// X and Y variables by Node.Index(); only reachable nodes get one.
		xVar := make([]int, len(it.Prof.Layers))
		yVar := make([]int, len(it.Prof.Layers))
		for _, n := range reachable {
			lp := it.Prof.Layer(n)
			// Objective: X·cload + Y·(ccomp − cload), scaled (Equation 9).
			xVar[n.Index()] = newVar(float64(lp.LoadFLOPs) * scale)
			if !n.IsInput() {
				yVar[n.Index()] = newVar(float64(lp.CompFLOPs-lp.LoadFLOPs) * scale)
			}
		}
		isOut := make([]bool, len(it.Prof.Layers))
		for _, o := range it.Prof.Model.Outputs {
			isOut[o.Index()] = true
		}
		for _, n := range reachable {
			x, y := xVar[n.Index()], yVar[n.Index()]
			// (a) outputs present.
			if isOut[n.Index()] {
				p.AddConstraint(milp.GE, 1, milp.Term{Var: x, Coef: 1})
			}
			if n.IsInput() {
				continue
			}
			// (b) Y ≤ X.
			p.AddConstraint(milp.GE, 0, milp.Term{Var: x, Coef: 1}, milp.Term{Var: y, Coef: -1})
			// (c) computed ⇒ every parent present.
			for _, par := range n.Parents {
				p.AddConstraint(milp.GE, 0, milp.Term{Var: xVar[par.Index()], Coef: 1}, milp.Term{Var: y, Coef: -1})
			}
			// (d) loaded (X−Y=1) only if the matching candidate is
			// materialized; non-materializable layers have no candidate and
			// get X−Y ≤ 0.
			lp := it.Prof.Layer(n)
			if z, ok := zVar[lp.Sig]; ok && lp.Materializable {
				p.AddConstraint(milp.LE, 0,
					milp.Term{Var: x, Coef: 1}, milp.Term{Var: y, Coef: -1}, milp.Term{Var: z, Coef: -1})
			} else {
				p.AddConstraint(milp.LE, 0,
					milp.Term{Var: x, Coef: 1}, milp.Term{Var: y, Coef: -1})
			}
		}
	}
	// (e) storage budget.
	var terms []milp.Term
	for _, c := range cands {
		terms = append(terms, milp.Term{Var: zVar[c.Sig], Coef: float64(c.BytesPerRec) * r})
	}
	if len(terms) > 0 {
		p.AddConstraint(milp.LE, float64(cfg.DiskBudgetBytes), terms...)
	}
	return p, zVar
}
