package milp

import (
	"fmt"
	"math"
)

// Options tunes the branch & bound search.
type Options struct {
	// MaxNodes bounds the search-tree size; 0 means the default (200k).
	MaxNodes int
	// Gap is the relative optimality gap at which search stops early.
	Gap float64
}

// Solve solves the MILP exactly (up to Options.Gap) by LP-relaxation branch
// & bound over the binary variables.
func Solve(p *Problem, opts Options) (Solution, error) {
	if len(p.Minimize) != p.NumVars {
		return Solution{}, fmt.Errorf("milp: objective has %d coefficients for %d vars", len(p.Minimize), p.NumVars)
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200_000
	}

	best := Solution{Status: Infeasible, Objective: math.Inf(1)}
	nodes := 0

	var recurse func(fixed map[int]float64)
	recurse = func(fixed map[int]float64) {
		if nodes >= maxNodes {
			return
		}
		nodes++
		rel := solveLP(p, fixed)
		if rel.Status != Optimal {
			return
		}
		if rel.Objective >= best.Objective-1e-9 {
			return // bound prune
		}
		// Find the most fractional binary.
		frac := -1
		fracDist := 0.0
		for v := 0; v < p.NumVars; v++ {
			if v >= len(p.Binary) || !p.Binary[v] {
				continue
			}
			if _, ok := fixed[v]; ok {
				continue
			}
			d := math.Abs(rel.X[v] - math.Round(rel.X[v]))
			if d > 1e-6 && d > fracDist {
				frac = v
				fracDist = d
			}
		}
		if frac < 0 {
			// Integral: candidate incumbent.
			if rel.Objective < best.Objective {
				best = Solution{Status: Optimal, X: snap(rel.X, p.Binary), Objective: rel.Objective}
			}
			return
		}
		if best.Status == Optimal && opts.Gap > 0 &&
			best.Objective-rel.Objective <= opts.Gap*math.Max(1, math.Abs(best.Objective)) {
			return
		}
		// Branch on the rounding-preferred side first.
		first, second := 1.0, 0.0
		if rel.X[frac] < 0.5 {
			first, second = 0.0, 1.0
		}
		for _, val := range []float64{first, second} {
			child := make(map[int]float64, len(fixed)+1)
			for k, v := range fixed {
				child[k] = v
			}
			child[frac] = val
			recurse(child)
		}
	}
	recurse(map[int]float64{})

	if best.Status != Optimal {
		// Distinguish true infeasibility from node exhaustion.
		rel := solveLP(p, map[int]float64{})
		if rel.Status == Infeasible {
			return Solution{Status: Infeasible}, nil
		}
		if rel.Status == Unbounded {
			return Solution{Status: Unbounded}, nil
		}
		return Solution{}, fmt.Errorf("milp: node budget (%d) exhausted without an integral solution", maxNodes)
	}
	return best, nil
}

// snap rounds binary coordinates to exact 0/1.
func snap(x []float64, binary []bool) []float64 {
	out := append([]float64(nil), x...)
	for v := range out {
		if v < len(binary) && binary[v] {
			out[v] = math.Round(out[v])
		}
	}
	return out
}
