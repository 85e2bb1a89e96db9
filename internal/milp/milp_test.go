package milp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLPSimple2D(t *testing.T) {
	// min -x - 2y  s.t.  x + y <= 4, x <= 2, y <= 3  → x=1? No:
	// optimum at (1,3): obj -7. Check: x+y<=4, y<=3 → best y=3, x=1.
	p := &Problem{NumVars: 2, Minimize: []float64{-1, -2}}
	p.AddConstraint(LE, 4, Term{0, 1}, Term{1, 1})
	p.AddConstraint(LE, 2, Term{0, 1})
	p.AddConstraint(LE, 3, Term{1, 1})
	s := solveLP(p, nil)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if math.Abs(s.Objective-(-7)) > 1e-6 {
		t.Errorf("objective = %v, want -7", s.Objective)
	}
	if math.Abs(s.X[0]-1) > 1e-6 || math.Abs(s.X[1]-3) > 1e-6 {
		t.Errorf("x = %v, want [1 3]", s.X)
	}
}

func TestLPEqualityAndGE(t *testing.T) {
	// min x + y  s.t.  x + y = 5, x >= 2  → (2,3)? obj always 5.
	// Use distinct costs: min 2x + y s.t. x+y=5, x>=2 → x=2,y=3, obj 7.
	p := &Problem{NumVars: 2, Minimize: []float64{2, 1}}
	p.AddConstraint(EQ, 5, Term{0, 1}, Term{1, 1})
	p.AddConstraint(GE, 2, Term{0, 1})
	s := solveLP(p, nil)
	if s.Status != Optimal || math.Abs(s.Objective-7) > 1e-6 {
		t.Errorf("status %v obj %v, want optimal 7", s.Status, s.Objective)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := &Problem{NumVars: 1, Minimize: []float64{1}}
	p.AddConstraint(GE, 5, Term{0, 1})
	p.AddConstraint(LE, 3, Term{0, 1})
	if s := solveLP(p, nil); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	p := &Problem{NumVars: 1, Minimize: []float64{-1}}
	p.AddConstraint(GE, 0, Term{0, 1})
	if s := solveLP(p, nil); s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestLPNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3  (i.e. x >= 3) → 3.
	p := &Problem{NumVars: 1, Minimize: []float64{1}}
	p.AddConstraint(LE, -3, Term{0, -1})
	s := solveLP(p, nil)
	if s.Status != Optimal || math.Abs(s.Objective-3) > 1e-6 {
		t.Errorf("got %v obj %v, want 3", s.Status, s.Objective)
	}
}

func TestMILPKnapsack(t *testing.T) {
	// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
	// Equivalent min of negatives. Best: a+c (weight 5, value 17)?
	// b+c: weight 6, value 20 ← optimum.
	p := &Problem{
		NumVars:  3,
		Minimize: []float64{-10, -13, -7},
		Binary:   []bool{true, true, true},
	}
	p.AddConstraint(LE, 6, Term{0, 3}, Term{1, 4}, Term{2, 2})
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-(-20)) > 1e-6 {
		t.Errorf("objective = %v, want -20", s.Objective)
	}
	if s.X[0] != 0 || s.X[1] != 1 || s.X[2] != 1 {
		t.Errorf("x = %v, want [0 1 1]", s.X)
	}
}

func TestMILPInfeasible(t *testing.T) {
	p := &Problem{NumVars: 2, Minimize: []float64{1, 1}, Binary: []bool{true, true}}
	p.AddConstraint(GE, 3, Term{0, 1}, Term{1, 1}) // two binaries can sum to at most 2
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestMILPMixedIntegerContinuous(t *testing.T) {
	// min -y - 5b s.t. y <= 2 + 3b, y <= 4, b binary.
	// b=1: y=4 → -9. b=0: y=2 → -2. Optimum -9.
	p := &Problem{NumVars: 2, Minimize: []float64{-1, -5}, Binary: []bool{false, true}}
	p.AddConstraint(LE, 2, Term{0, 1}, Term{1, -3})
	p.AddConstraint(LE, 4, Term{0, 1})
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-(-9)) > 1e-6 {
		t.Errorf("objective = %v, want -9", s.Objective)
	}
}

// TestMILPMatchesBruteForce validates branch & bound against exhaustive
// enumeration on random binary problems.
func TestMILPMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		p := &Problem{NumVars: n, Minimize: make([]float64, n), Binary: make([]bool, n)}
		for v := 0; v < n; v++ {
			p.Minimize[v] = float64(rng.Intn(21) - 10)
			p.Binary[v] = true
		}
		nc := 1 + rng.Intn(3)
		for i := 0; i < nc; i++ {
			var terms []Term
			for v := 0; v < n; v++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{v, float64(rng.Intn(9) - 2)})
				}
			}
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(LE, float64(rng.Intn(10)), terms...)
		}
		got, err := Solve(p, Options{})
		if err != nil {
			return false
		}

		// Brute force.
		bestObj := math.Inf(1)
		feasible := false
		x := make([]float64, n)
		for mask := 0; mask < 1<<n; mask++ {
			for v := 0; v < n; v++ {
				x[v] = 0
				if mask&(1<<v) != 0 {
					x[v] = 1
				}
			}
			ok := true
			for _, c := range p.Constraints {
				lhs := 0.0
				for _, tm := range c.Terms {
					lhs += tm.Coef * x[tm.Var]
				}
				if c.Rel == LE && lhs > c.RHS+1e-9 {
					ok = false
				}
			}
			if !ok {
				continue
			}
			feasible = true
			obj := 0.0
			for v := 0; v < n; v++ {
				obj += p.Minimize[v] * x[v]
			}
			if obj < bestObj {
				bestObj = obj
			}
		}
		if !feasible {
			return got.Status == Infeasible
		}
		return got.Status == Optimal && math.Abs(got.Objective-bestObj) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSolveObjectiveLengthMismatch(t *testing.T) {
	p := &Problem{NumVars: 3, Minimize: []float64{1}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Error("mismatched objective length should error")
	}
}

func TestSolveWithGapStopsEarlyButFeasible(t *testing.T) {
	// A 12-item knapsack with an optimality gap: the returned solution
	// must be feasible and within the gap of the true optimum.
	n := 12
	p := &Problem{NumVars: n, Minimize: make([]float64, n), Binary: make([]bool, n)}
	var terms []Term
	for v := 0; v < n; v++ {
		p.Minimize[v] = -float64(3 + (v*7)%11)
		p.Binary[v] = true
		terms = append(terms, Term{v, float64(2 + (v*5)%7)})
	}
	p.AddConstraint(LE, 20, terms...)

	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gapped, err := Solve(p, Options{Gap: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	if gapped.Status != Optimal {
		t.Fatalf("status %v", gapped.Status)
	}
	// Feasibility.
	var lhs float64
	for _, tm := range terms {
		lhs += tm.Coef * gapped.X[tm.Var]
	}
	if lhs > 20+1e-9 {
		t.Errorf("gapped solution infeasible: weight %v", lhs)
	}
	// Within 10% of optimal (both objectives negative).
	if gapped.Objective > exact.Objective*(1-0.10)+1e-9 {
		t.Errorf("gapped objective %v too far from optimum %v", gapped.Objective, exact.Objective)
	}
}

func TestSolveNodeBudgetExhaustion(t *testing.T) {
	// MaxNodes=1 cannot finish a fractional problem: expect an error, not
	// a wrong answer.
	p := &Problem{NumVars: 3, Minimize: []float64{-5, -4, -3}, Binary: []bool{true, true, true}}
	p.AddConstraint(LE, 2.5, Term{0, 1}, Term{1, 1}, Term{2, 1})
	if _, err := Solve(p, Options{MaxNodes: 1}); err == nil {
		t.Error("exhausted node budget should error")
	}
}
