// Package milp implements a mixed-integer linear programming solver:
// two-phase dense primal simplex for LP relaxations and depth-first branch
// & bound over binary variables. It is the generic counterpart of the
// paper's Gurobi dependency. Only tests import it: it solves the
// materialization MILP (Equations 8–10) behind opt.SolveMILP, the oracle
// the planner's branch & bound over min-cut is checked against.
package milp

import (
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ coef·x ≤ rhs
	GE            // Σ coef·x ≥ rhs
	EQ            // Σ coef·x = rhs
)

// Term is one sparse coefficient.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is one linear constraint over the problem's variables.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Problem is a minimization MILP. All variables are non-negative; variables
// flagged Binary are additionally constrained to {0, 1}.
type Problem struct {
	NumVars     int
	Minimize    []float64
	Constraints []Constraint
	Binary      []bool
}

// AddConstraint appends a constraint built from (var, coef) pairs.
func (p *Problem) AddConstraint(rel Rel, rhs float64, terms ...Term) {
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Rel: rel, RHS: rhs})
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of an LP or MILP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const eps = 1e-7

// solveLP solves the LP relaxation of p (ignoring integrality; binary
// variables keep their ≤1 bound) with extra equality fixings
// fixed[v] ∈ {0,1} applied, as used by branch & bound.
func solveLP(p *Problem, fixed map[int]float64) Solution {
	// Assemble rows: user constraints, x ≤ 1 for binaries, x = v fixings.
	type row struct {
		coefs []float64
		rel   Rel
		rhs   float64
	}
	var rows []row
	mk := func(c Constraint) row {
		r := row{coefs: make([]float64, p.NumVars), rel: c.Rel, rhs: c.RHS}
		for _, t := range c.Terms {
			r.coefs[t.Var] += t.Coef
		}
		return r
	}
	for _, c := range p.Constraints {
		rows = append(rows, mk(c))
	}
	for v := 0; v < p.NumVars; v++ {
		if v < len(p.Binary) && p.Binary[v] {
			if _, isFixed := fixed[v]; !isFixed {
				r := row{coefs: make([]float64, p.NumVars), rel: LE, rhs: 1}
				r.coefs[v] = 1
				rows = append(rows, r)
			}
		}
	}
	for v, val := range fixed {
		r := row{coefs: make([]float64, p.NumVars), rel: EQ, rhs: val}
		r.coefs[v] = 1
		rows = append(rows, r)
	}

	m := len(rows)
	// Count extra columns: one slack/surplus per inequality, one
	// artificial per GE/EQ (and per LE with negative rhs after flip).
	// Normalize rhs ≥ 0 first.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coefs {
				rows[i].coefs[j] = -rows[i].coefs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
	}
	nSlack, nArt := 0, 0
	for _, r := range rows {
		if r.rel != EQ {
			nSlack++
		}
		if r.rel != LE {
			nArt++
		}
	}
	n := p.NumVars + nSlack + nArt
	// Tableau: m rows × (n+1) columns, last column rhs.
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackCol := p.NumVars
	artCol := p.NumVars + nSlack
	artStart := artCol
	for i, r := range rows {
		tab[i] = make([]float64, n+1)
		copy(tab[i], r.coefs)
		tab[i][n] = r.rhs
		switch r.rel {
		case LE:
			tab[i][slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			tab[i][slackCol] = -1
			slackCol++
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			tab[i][artCol] = 1
			basis[i] = artCol
			artCol++
		}
	}

	// Phase 1: minimize the artificial sum.
	if nArt > 0 {
		cost := make([]float64, n)
		for j := artStart; j < artStart+nArt; j++ {
			cost[j] = 1
		}
		obj, ok := runSimplex(tab, basis, cost)
		if !ok {
			return Solution{Status: Unbounded}
		}
		if obj > 1e-6 {
			return Solution{Status: Infeasible}
		}
		// Drive remaining artificials out of the basis.
		for i := range basis {
			if basis[i] >= artStart {
				pivoted := false
				for j := 0; j < artStart; j++ {
					if math.Abs(tab[i][j]) > eps {
						pivot(tab, basis, i, j)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row; zero it out.
					for j := range tab[i] {
						tab[i][j] = 0
					}
					basis[i] = -1
				}
			}
		}
	}

	// Phase 2: original objective (artificial columns frozen at zero).
	cost := make([]float64, n)
	copy(cost, p.Minimize)
	for j := artStart; j < artStart+nArt; j++ {
		cost[j] = math.Inf(1) // never re-enter
	}
	if _, ok := runSimplex(tab, basis, cost); !ok {
		return Solution{Status: Unbounded}
	}
	x := make([]float64, p.NumVars)
	for i, b := range basis {
		if b >= 0 && b < p.NumVars {
			x[b] = tab[i][n]
		}
	}
	obj := 0.0
	for v := 0; v < p.NumVars && v < len(p.Minimize); v++ {
		obj += p.Minimize[v] * x[v]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}
}

// runSimplex minimizes cost over the current tableau with Bland's rule,
// returning the objective and false on unboundedness.
func runSimplex(tab [][]float64, basis []int, cost []float64) (float64, bool) {
	m := len(tab)
	if m == 0 {
		return 0, true
	}
	n := len(tab[0]) - 1
	// Reduced costs maintained implicitly: z_j - c_j computed per
	// iteration from the basis (dense, simple, adequate at our sizes).
	for iter := 0; iter < 50000; iter++ {
		// y = c_B (basis costs); reduced cost r_j = c_j - Σ_i c_{B_i}·tab[i][j].
		enter := -1
		for j := 0; j < n; j++ {
			if math.IsInf(cost[j], 1) {
				continue
			}
			r := cost[j]
			for i := 0; i < m; i++ {
				if basis[i] >= 0 && !math.IsInf(cost[basis[i]], 1) {
					r -= cost[basis[i]] * tab[i][j]
				}
			}
			if r < -eps {
				enter = j // Bland: first improving index
				break
			}
		}
		if enter < 0 {
			obj := 0.0
			for i := 0; i < m; i++ {
				if basis[i] >= 0 && !math.IsInf(cost[basis[i]], 1) {
					obj += cost[basis[i]] * tab[i][n]
				}
			}
			return obj, true
		}
		// Ratio test (Bland: smallest basis index breaks ties).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][enter] > eps {
				ratio := tab[i][n] / tab[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, false // unbounded
		}
		pivot(tab, basis, leave, enter)
	}
	// Iteration cap: treat as converged with current basis (defensive).
	obj := 0.0
	for i := 0; i < m; i++ {
		if basis[i] >= 0 && !math.IsInf(cost[basis[i]], 1) {
			obj += cost[basis[i]] * tab[i][n]
		}
	}
	return obj, true
}

// pivot makes column col basic in row r.
func pivot(tab [][]float64, basis []int, r, col int) {
	pv := tab[r][col]
	for j := range tab[r] {
		tab[r][j] /= pv
	}
	for i := range tab {
		if i == r {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[r][j]
		}
	}
	basis[r] = col
}
