package opt

import (
	"fmt"
	"sort"
	"time"

	"nautilus/internal/graph"
	"nautilus/internal/milp"
	"nautilus/internal/mmg"
	"nautilus/internal/profile"
)

// WorkItem is one candidate (M_i, ϕ_i) of the model-selection workload as
// the optimizer sees it.
type WorkItem struct {
	Model     *graph.Model
	Prof      *profile.ModelProfile
	Epochs    int
	BatchSize int
	// LR is the item's learning rate. The optimizer ignores it; the
	// trainer uses it to build each branch's optimizer.
	LR float64
}

// MatConfig configures the materialization optimization.
type MatConfig struct {
	// DiskBudgetBytes is B_disk.
	DiskBudgetBytes int64
	// MaxRecords is r, the expected maximum number of training records the
	// storage footprint is sized for (Section 4.2.1).
	MaxRecords int
	// Solver selects "bnb" (branch & bound over Z with exact min-cut
	// sub-evaluation; the default) or "milp" (the paper's joint MILP via
	// the generic simplex solver; tractable at small workload sizes).
	Solver string
	// MaxNodes caps the branch-and-bound tree (default 50k). On exhaustion
	// the best incumbent (at least as good as greedy) is returned.
	MaxNodes int
}

// MatCandidate is one materializable intermediate the optimizer may choose:
// a merged multi-model node with its storage and load costs.
type MatCandidate struct {
	Node        *graph.Node
	Sig         graph.Signature
	BytesPerRec int64
	SharedBy    int // how many candidate models contain this expression
}

// MatResult is the outcome of the materialization optimization.
type MatResult struct {
	// Materialized is the chosen set V.
	Materialized []MatCandidate
	// Sigs indexes V by expression signature.
	Sigs map[graph.Signature]bool
	// Plans maps each workload model to its optimal reuse plan given V.
	Plans map[*graph.Model]*Plan
	// TotalCostFLOPs is Σ_i C(M_i^opt)·r·epochs_i (Equation 6).
	TotalCostFLOPs int64
	// StorageBytes is the storage footprint of V at r records.
	StorageBytes int64
	// SolveTime and NodesExplored report optimizer effort (Section 5.3).
	SolveTime     time.Duration
	NodesExplored int
}

// OptimizeMaterialization solves the materialization optimization problem
// (Section 4.2): choose V ⊆ U minimizing total training cost subject to the
// storage budget, and derive each model's optimal reuse plan.
func OptimizeMaterialization(mm *mmg.MultiModel, items []WorkItem, cfg MatConfig) (*MatResult, error) {
	start := time.Now()
	if cfg.MaxRecords <= 0 {
		return nil, fmt.Errorf("opt: MaxRecords must be positive")
	}
	cands, err := candidates(mm, items)
	if err != nil {
		return nil, err
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var chosen map[graph.Signature]bool
	var explored int
	switch cfg.Solver {
	case "", "bnb":
		chosen, explored, err = solveBnB(sc, cands, items, cfg)
	case "milp":
		chosen, explored, err = solveMILP(cands, items, cfg)
	default:
		err = fmt.Errorf("opt: unknown solver %q", cfg.Solver)
	}
	if err != nil {
		return nil, err
	}

	res := &MatResult{Sigs: chosen, Plans: map[*graph.Model]*Plan{}, NodesExplored: explored}
	for _, c := range cands {
		if chosen[c.Sig] {
			res.Materialized = append(res.Materialized, c)
			res.StorageBytes += c.BytesPerRec * int64(cfg.MaxRecords)
		}
	}
	for _, it := range items {
		plan, err := SolveReusePlan(it.Prof, chosen)
		if err != nil {
			return nil, err
		}
		res.Plans[it.Model] = plan
		res.TotalCostFLOPs += plan.CostPerRecord * int64(cfg.MaxRecords) * int64(it.Epochs)
	}
	// Post-process (Section 4.2.2): drop materialized layers no plan loads.
	res.pruneUnused(cfg.MaxRecords)
	res.SolveTime = time.Since(start)
	return res, nil
}

// pruneUnused removes chosen candidates that no reuse plan actually loads.
func (r *MatResult) pruneUnused(maxRecords int) {
	used := map[graph.Signature]bool{}
	for _, plan := range r.Plans {
		for _, n := range plan.LoadedNodes() {
			used[plan.Prof.Sig(n)] = true
		}
	}
	var kept []MatCandidate
	r.StorageBytes = 0
	for _, c := range r.Materialized {
		if used[c.Sig] {
			kept = append(kept, c)
			r.StorageBytes += c.BytesPerRec * int64(maxRecords)
		} else {
			delete(r.Sigs, c.Sig)
		}
	}
	r.Materialized = kept
}

// candidates extracts the candidate set U from the multi-model graph,
// ordered by descending sharing then size (a good branching order). A
// merged node's output size is its first source node's, read from that
// item's profile — the workload graph itself is never profiled.
func candidates(mm *mmg.MultiModel, items []WorkItem) ([]MatCandidate, error) {
	profOf := make(map[*graph.Model]*profile.ModelProfile, len(items))
	for _, it := range items {
		if it.Prof == nil || it.Prof.Model != it.Model {
			return nil, fmt.Errorf("opt: work item %q carries no profile of its model", it.Model.Name)
		}
		if n := len(it.Prof.Layers); n < it.Model.NumNodes() {
			return nil, fmt.Errorf("opt: profile of model %q has no entry for node %q", it.Model.Name, it.Model.Nodes()[n].Name)
		}
		profOf[it.Model] = it.Prof
	}
	var out []MatCandidate
	for _, n := range mm.MaterializableNodes() {
		src := mm.SourcesOf(n)[0]
		prof := profOf[src.Model]
		if prof == nil {
			return nil, fmt.Errorf("opt: multi-model graph holds model %q, which is not a work item", src.Model.Name)
		}
		out = append(out, MatCandidate{
			Node:        n,
			Sig:         mm.Sig(n),
			BytesPerRec: prof.Layer(src.Node).OutBytes,
			SharedBy:    mm.SharedCount(n),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SharedBy != out[j].SharedBy {
			return out[i].SharedBy > out[j].SharedBy
		}
		if out[i].BytesPerRec != out[j].BytesPerRec {
			return out[i].BytesPerRec < out[j].BytesPerRec
		}
		return out[i].Sig < out[j].Sig
	})
	return out, nil
}

// matSearch is one MAT OPT search over subsets of U. A subset is chosen[] by
// candidate position, not a signature set: each item knows which candidate
// each of its nodes is, so pricing a subset fills one []bool per item.
type matSearch struct {
	sc     *scratch
	cands  []MatCandidate
	items  []WorkItem
	views  []view    // by item: its profile, wrapped once per search
	candOf [][]int32 // [item][node index] → 1 + candidate position, 0 if none
	chosen []bool    // by candidate position
}

func newMatSearch(sc *scratch, cands []MatCandidate, items []WorkItem) *matSearch {
	pos := make(map[graph.Signature]int32, len(cands))
	for c, cand := range cands {
		pos[cand.Sig] = int32(c) + 1
	}
	s := &matSearch{sc: sc, cands: cands, items: items, views: make([]view, len(items)), candOf: make([][]int32, len(items)), chosen: make([]bool, len(cands))}
	for k, it := range items {
		s.views[k].wrap(it.Prof)
		s.candOf[k] = make([]int32, len(it.Prof.Layers))
		for i := range it.Prof.Layers {
			s.candOf[k][i] = pos[it.Prof.Layers[i].Sig]
		}
	}
	return s
}

// cost evaluates Σ_i C(M_i^opt)·epochs_i (per record) exactly, by per-model
// min-cuts, for the loadable set chosen ∪ cands[from:].
func (s *matSearch) cost(from int) (int64, error) {
	var total int64
	for k, it := range s.items {
		candOf := s.candOf[k]
		s.sc.loadable = resize(s.sc.loadable, len(candOf))
		for i, c := range candOf {
			s.sc.loadable[i] = c > 0 && (int(c) > from || s.chosen[c-1])
		}
		cost, err := s.sc.planCost(&s.views[k], s.sc.loadable)
		if err != nil {
			return 0, err
		}
		total += cost * int64(it.Epochs)
	}
	return total, nil
}

// sigs is the chosen subset as a signature set.
func (s *matSearch) sigs() map[graph.Signature]bool {
	out := map[graph.Signature]bool{}
	for c, in := range s.chosen {
		if in {
			out[s.cands[c].Sig] = true
		}
	}
	return out
}

// solveBnB searches subsets of U by depth-first branch & bound. The lower
// bound of a partial assignment materializes every undecided candidate for
// free, which is valid because growing the loadable set never raises the
// optimal plan cost; budget feasibility is enforced on decided candidates
// only.
func solveBnB(sc *scratch, cands []MatCandidate, items []WorkItem, cfg MatConfig) (map[graph.Signature]bool, int, error) {
	maxNodes := cfg.MaxNodes
	if maxNodes == 0 {
		maxNodes = 50_000
	}
	r := int64(cfg.MaxRecords)
	s := newMatSearch(sc, cands, items)

	// Incumbent: greedy in candidate order.
	bestCost, err := s.greedy(cfg)
	if err != nil {
		return nil, 0, err
	}
	bestSigs := s.sigs()
	clear(s.chosen)

	explored := 0
	var firstErr error

	// The optimistic bound treats undecided candidates as free and
	// materialized: at depth i, {decided yes} ∪ cands[i:]. A "yes" on
	// cands[i] leaves that set as it was, so the yes child is handed its
	// parent's bound (≥ 0) instead of recomputing it.
	var dfs func(i int, usedBytes, bound int64)
	dfs = func(i int, usedBytes, bound int64) {
		if firstErr != nil || explored >= maxNodes {
			return
		}
		explored++
		if bound < 0 {
			if bound, firstErr = s.cost(i); firstErr != nil {
				return
			}
		}
		if bound >= bestCost {
			return
		}
		if i == len(cands) {
			// bound is exact here.
			bestCost = bound
			bestSigs = s.sigs()
			return
		}
		c := cands[i]
		if usedBytes+c.BytesPerRec*r <= cfg.DiskBudgetBytes {
			s.chosen[i] = true
			dfs(i+1, usedBytes+c.BytesPerRec*r, bound)
			s.chosen[i] = false
		}
		dfs(i+1, usedBytes, -1)
	}
	dfs(0, 0, -1)
	if firstErr != nil {
		return nil, explored, firstErr
	}
	return bestSigs, explored, nil
}

// greedy builds the initial incumbent in s.chosen and returns its cost: in
// candidate order, keep what fits the budget and strictly lowers the cost.
func (s *matSearch) greedy(cfg MatConfig) (int64, error) {
	r := int64(cfg.MaxRecords)
	none := len(s.cands) // no optimistic tail: the loadable set is chosen alone
	cost, err := s.cost(none)
	if err != nil {
		return 0, err
	}
	var used int64
	for i, c := range s.cands {
		if used+c.BytesPerRec*r > cfg.DiskBudgetBytes {
			continue
		}
		s.chosen[i] = true
		nc, err := s.cost(none)
		if err != nil {
			return 0, err
		}
		if nc < cost {
			cost = nc
			used += c.BytesPerRec * r
		} else {
			s.chosen[i] = false
		}
	}
	return cost, nil
}

// solveMILP builds and solves the joint MILP of Section 4.2.2
// (Equations 8–10) with the generic simplex + branch & bound solver.
func solveMILP(cands []MatCandidate, items []WorkItem, cfg MatConfig) (map[graph.Signature]bool, int, error) {
	p, zVar := BuildMILP(cands, items, cfg)
	sol, err := milp.Solve(p, milp.Options{})
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != milp.Optimal {
		return nil, 0, fmt.Errorf("opt: MILP status %v", sol.Status)
	}
	chosen := map[graph.Signature]bool{}
	for sig, v := range zVar {
		if sol.X[v] > 0.5 {
			chosen[sig] = true
		}
	}
	return chosen, 1, nil
}

// BuildMILP constructs the paper's MILP (Equations 8–10): binary X_{i,j}
// (layer present), Y_{i,j} (layer computed), Z_k (candidate materialized),
// with the storage-budget and structural constraints. It returns the
// problem and the Z variable index per candidate signature.
func BuildMILP(cands []MatCandidate, items []WorkItem, cfg MatConfig) (*milp.Problem, map[graph.Signature]int) {
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
