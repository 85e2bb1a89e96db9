package mincut

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// Eval computes the energy of a given labelling, to verify optimality
// against brute force. It reads the terms back out of the network, so it
// works before and after a solve: an edge's original capacity is its
// residual plus its reverse's, and the pairwise terms are the edges that
// touch neither terminal.
func (e *Energy) Eval(x []bool) int64 {
	var total int64
	for v := range e.cost0 {
		if x[v] {
			total = satAdd(total, e.cost1[v])
		} else {
			total = satAdd(total, e.cost0[v])
		}
	}
	for i := 0; i < len(e.g.to); i += 2 {
		u, v := int(e.g.to[i^1]), int(e.g.to[i])
		if u >= 2 && v >= 2 && x[u-2] && !x[v-2] {
			total = satAdd(total, e.g.cap[i]+e.g.cap[i^1])
		}
	}
	return total
}

func TestMaxFlowTextbook(t *testing.T) {
	// Classic 6-node example with max flow 23.
	g := new(Graph)
	g.Reset(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Errorf("max flow = %d, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := new(Graph)
	g.Reset(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(2, 3, 5)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Errorf("max flow = %d, want 0", got)
	}
}

func TestMinCutSideSeparates(t *testing.T) {
	g := new(Graph)
	g.Reset(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 1) // bottleneck
	g.AddEdge(2, 3, 10)
	if got := g.MaxFlow(0, 3); got != 1 {
		t.Fatalf("max flow = %d, want 1", got)
	}
	side := g.MinCutSide(0)
	if !side[0] || !side[1] || side[2] || side[3] {
		t.Errorf("cut side = %v, want s-side {0,1}", side)
	}
}

func TestEnergyUnaryOnly(t *testing.T) {
	var e Energy
	e.Reset(3)
	e.AddUnary(0, 5, 1)  // prefers 1
	e.AddUnary(1, 2, 9)  // prefers 0
	e.AddUnary(2, -4, 3) // negative cost0: prefers 0
	x, val, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !x[0] || x[1] || x[2] {
		t.Errorf("labels = %v, want [1 0 0]", x)
	}
	if val != 1+2-4 {
		t.Errorf("value = %d, want -1", val)
	}
	if e.Eval(x) != val {
		t.Errorf("Eval disagrees: %d vs %d", e.Eval(x), val)
	}
}

func TestEnergyImplicationForcesLabel(t *testing.T) {
	// x0 strongly wants 1; x0 ⇒ x1; x1 mildly wants 0. Optimal: both 1.
	var e Energy
	e.Reset(2)
	e.AddUnary(0, 100, 0)
	e.AddUnary(1, 0, 10)
	e.AddImplication(0, 1)
	x, val, err := e.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !x[0] || !x[1] {
		t.Errorf("labels = %v, want [1 1]", x)
	}
	if val != 10 {
		t.Errorf("value = %d, want 10", val)
	}
}

func TestEnergyUnsatisfiable(t *testing.T) {
	// x0 forced to 1 (Inf cost at 0), x1 forced to 0, x0 ⇒ x1.
	var e Energy
	e.Reset(2)
	e.AddUnary(0, Inf, 0)
	e.AddUnary(1, 0, Inf)
	e.AddImplication(0, 1)
	if _, _, err := e.Solve(); err == nil {
		t.Error("expected unsatisfiable")
	}
}

// TestEnergyMatchesBruteForce is the load-bearing property test: on random
// submodular instances the min-cut solution must equal exhaustive search.
func TestEnergyMatchesBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		var e Energy
		e.Reset(n)
		for v := 0; v < n; v++ {
			e.AddUnary(v, int64(rng.Intn(41)-20), int64(rng.Intn(41)-20))
		}
		terms := rng.Intn(2 * n)
		for i := 0; i < terms; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(3) == 0 {
				e.AddImplication(u, v)
			} else {
				e.AddPairwise(u, v, int64(rng.Intn(15)))
			}
		}
		x, val, err := e.Solve()
		if err != nil {
			// Unsatisfiable is impossible here: no Inf unaries.
			return false
		}
		if e.Eval(x) != val {
			return false
		}
		// Brute force.
		best := int64(1) << 62
		for mask := 0; mask < 1<<n; mask++ {
			lab := make([]bool, n)
			for v := 0; v < n; v++ {
				lab[v] = mask&(1<<v) != 0
			}
			if ev := e.Eval(lab); ev < best {
				best = ev
			}
		}
		return val == best
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// edmondsKarp is the reference max flow: shortest augmenting paths over a
// capacity matrix, parallel edges summed. It returns min(flow, Inf) and,
// when the flow is finite, the nodes reachable from s in the residual
// graph — the inclusion-minimal minimum cut's source side.
func edmondsKarp(n, s, t int, edges [][3]int64) (int64, []bool) {
	r := make([][]int64, n)
	for u := range r {
		r[u] = make([]int64, n)
	}
	for _, e := range edges {
		if u, v := int(e[0]), int(e[1]); u != v {
			r[u][v] = min(r[u][v]+e[2], 8*Inf)
		}
	}
	reach := func() []int {
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = s
		for queue := []int{s}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for v := 0; v < n; v++ {
				if r[u][v] > 0 && prev[v] < 0 {
					prev[v] = u
					queue = append(queue, v)
				}
			}
		}
		return prev
	}
	var flow int64
	for {
		prev := reach()
		if prev[t] < 0 {
			side := make([]bool, n)
			for v := range side {
				side[v] = prev[v] >= 0
			}
			return flow, side
		}
		d := 8 * Inf
		for v := t; v != s; v = prev[v] {
			d = min(d, r[prev[v]][v])
		}
		for v := t; v != s; v = prev[v] {
			r[prev[v]][v] -= d
			r[v][prev[v]] += d
		}
		if flow += d; flow >= Inf {
			return Inf, nil
		}
	}
}

// TestMaxFlowMatchesEdmondsKarp: on seeded random networks of 2–40 nodes —
// finite capacities (zeros included), Inf ones, parallel edges and
// self-loops — MaxFlow and MinCutSide equal the Edmonds–Karp reference for
// the edges in their drawn order, reversed and shuffled, on one Graph
// reused throughout.
func TestMaxFlowMatchesEdmondsKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := new(Graph)
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(39)
		s, t2 := rng.Intn(n), rng.Intn(n-1)
		if t2 >= s {
			t2++
		}
		edges := make([][3]int64, rng.Intn(4*n+1))
		for i := range edges {
			c := int64(rng.Intn(21))
			if rng.Intn(8) == 0 {
				c = Inf
			}
			edges[i] = [3]int64{int64(rng.Intn(n)), int64(rng.Intn(n)), c}
		}
		want, wantSide := edmondsKarp(n, s, t2, edges)
		for order := 0; order < 3; order++ {
			es := append([][3]int64(nil), edges...)
			switch order {
			case 1:
				slices.Reverse(es)
			case 2:
				rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			}
			g.Reset(n)
			for _, e := range es {
				g.AddEdge(int(e[0]), int(e[1]), e[2])
			}
			if got := g.MaxFlow(s, t2); got != want {
				t.Fatalf("trial %d (%d nodes, %d edges, s=%d t=%d), order %d: MaxFlow = %d, Edmonds–Karp %d", trial, n, len(es), s, t2, order, got, want)
			}
			if wantSide == nil {
				continue
			}
			if side := g.MinCutSide(s); !slices.Equal(side, wantSide) {
				t.Fatalf("trial %d (%d nodes, %d edges, s=%d t=%d), order %d: MinCutSide = %v, Edmonds–Karp %v", trial, n, len(es), s, t2, order, side, wantSide)
			}
		}
	}
}

// randomEnergy resets e to a seeded random instance over n variables.
func randomEnergy(e *Energy, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e.Reset(n)
	for v := 0; v < n; v++ {
		e.AddUnary(v, int64(rng.Intn(41)-20), int64(rng.Intn(41)-20))
	}
	for i := 0; i < 2*n; i++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			if rng.Intn(3) == 0 {
				e.AddImplication(u, v)
			} else {
				e.AddPairwise(u, v, int64(rng.Intn(15)))
			}
		}
	}
}

// TestEnergyReuseMatchesFresh: an Energy that has solved other instances —
// larger ones (a stale tail of head, level, cost arrays) and smaller ones
// (arrays grown mid-life) — labels and prices an instance exactly as a new
// Energy does, and Min agrees with Solve.
func TestEnergyReuseMatchesFresh(t *testing.T) {
	sizes := []int{3, 40, 9, 120, 2, 40}
	reused := &Energy{}
	for round := 0; round < 3; round++ {
		for i, n := range sizes {
			seed := int64(100*round + i)
			var fresh Energy
			randomEnergy(&fresh, n, seed)
			want, wantVal, wantErr := fresh.Solve()

			randomEnergy(reused, n, seed)
			got, val, err := reused.Solve()
			if (err == nil) != (wantErr == nil) || val != wantVal || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d, %d variables: reused energy found %v (%d, %v), a fresh one %v (%d, %v)", round, n, got, val, err, want, wantVal, wantErr)
			}
			randomEnergy(reused, n, seed)
			if val, err := reused.Min(); (err == nil) != (wantErr == nil) || val != wantVal {
				t.Fatalf("round %d, %d variables: Min = %d (%v), Solve found %d", round, n, val, err, wantVal)
			}
		}
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := new(Graph)
	g.Reset(2)
	g.AddEdge(0, 1, -1)
}

func TestSatAddSaturates(t *testing.T) {
	if satAdd(Inf, Inf) != Inf {
		t.Error("Inf+Inf must saturate")
	}
	if satAdd(Inf, -5) != Inf {
		t.Error("Inf-5 must stay Inf")
	}
	if satAdd(3, 4) != 7 {
		t.Error("plain addition broken")
	}
}

// AddPairwise adds a finite penalty c ≥ 0 for (x_u = 1, x_v = 0).
func (e *Energy) AddPairwise(u, v int, c int64) {
	if c < 0 {
		panic(fmt.Sprintf("mincut: negative pairwise term %d", c))
	}
	e.g.AddEdge(u+2, v+2, c)
}
