package mincut

import "fmt"

// Energy is a pairwise binary energy of the restricted submodular form
//
//	E(x) = const + Σ_v [a_v·x_v + b_v·(1−x_v)] + Σ c_{uv}·x_u·(1−x_v)
//
// with every pairwise coefficient c_{uv} ≥ 0. Such energies are exactly
// minimized by an s-t min-cut: label 1 means "on the source side".
//
// Negative unary coefficients are legal — they are rebalanced into the
// constant term, which is how the reuse-plan objective's (c_comp − c_load)
// coefficient can go negative when loading costs more than recomputing.
type Energy struct {
	cost1 []int64 // a_v, cost when x_v = 1
	cost0 []int64 // b_v, cost when x_v = 0

	// g holds the pairwise terms as edges between nodes v+2 from the moment
	// they are added; Min adds the unary edges to the terminals 0 and 1.
	g Graph
}

// Reset clears the energy to n variables and no terms, keeping its arrays.
func (e *Energy) Reset(n int) {
	e.cost0, e.cost1 = resize(e.cost0, n), resize(e.cost1, n)
	clear(e.cost0)
	clear(e.cost1)
	e.g.Reset(n + 2)
}

// AddUnary adds cost0 when x_v = 0 and cost1 when x_v = 1. Either may be
// negative or Inf (a hard constraint forcing the other label).
func (e *Energy) AddUnary(v int, cost0, cost1 int64) {
	e.cost0[v] = satAdd(e.cost0[v], cost0)
	e.cost1[v] = satAdd(e.cost1[v], cost1)
}

// AddImplication adds an ∞ penalty for (x_u = 1, x_v = 0), i.e. the hard
// constraint x_u ⇒ x_v.
func (e *Energy) AddImplication(u, v int) {
	// Penalty for u ∈ S, v ∈ T: edge u→v.
	e.g.AddEdge(u+2, v+2, Inf)
}

// Min exactly minimizes the energy and returns the minimum alone, or an
// error when the hard constraints are unsatisfiable (minimum ≥ Inf). The
// terms are consumed: call Min or Solve once per Reset.
func (e *Energy) Min() (int64, error) {
	const (
		s = 0
		t = 1
	)
	var constant int64
	for v := range e.cost0 {
		a, b := e.cost1[v], e.cost0[v]
		// Shift so both are non-negative; the smaller becomes constant.
		base := min(a, b)
		if base > 0 || (base < 0 && base != -Inf) {
			constant += base
			a -= base
			b -= base
		}
		// x_v = 1 (source side) pays a: edge v→t cut when v ∈ S.
		if a > 0 {
			e.g.AddEdge(v+2, t, a)
		}
		// x_v = 0 (sink side) pays b: edge s→v cut when v ∈ T.
		if b > 0 {
			e.g.AddEdge(s, v+2, b)
		}
	}
	flow := e.g.MaxFlow(s, t)
	value := satAdd(constant, flow)
	if flow >= Inf {
		return value, fmt.Errorf("mincut: hard constraints unsatisfiable")
	}
	return value, nil
}

// Solve is Min plus the argmin labelling — of all minimizers the one with
// the fewest variables at 1, whatever the term order (Graph.MinCutSide) —
// in the energy's own slice, valid until its next Reset.
func (e *Energy) Solve() ([]bool, int64, error) {
	value, err := e.Min()
	if err != nil {
		return nil, value, err
	}
	return e.g.MinCutSide(0)[2:], value, nil
}

// satAdd adds saturating at ±Inf so hard-constraint arithmetic cannot
// overflow.
func satAdd(a, b int64) int64 {
	s := a + b
	if a >= Inf || b >= Inf || s >= Inf {
		return Inf
	}
	if a <= -Inf || b <= -Inf || s <= -Inf {
		return -Inf
	}
	return s
}
