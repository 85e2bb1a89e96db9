// Package mincut implements Dinic's max-flow algorithm and, on top of it, a
// minimizer for submodular pairwise binary energies. The materialization
// optimizer uses it to find optimal reuse-plan models for a fixed set of
// materialized layers in polynomial time — the Max-Flow reduction the paper
// invokes in Section 4.3.2.
//
// Both types are reusable: Reset clears a network or an energy in place and
// keeps its arrays, so a planner that owns one allocates nothing per solve
// once warm, and no result depends on what was solved before.
package mincut

import (
	"math"
	"slices"
)

// Inf is the capacity used for hard constraints. It is large enough that no
// sum of finite costs reaches it, yet small enough that additions of a few
// Inf edges cannot overflow int64.
const Inf int64 = math.MaxInt64 / 16

// Graph is a flow network for Dinic's algorithm on flat edge arrays: edge e
// runs to to[e] with residual cap[e], its reverse is e^1, and node u's edges
// are the list head[u], next[head[u]], … ending at −1.
type Graph struct {
	head []int32
	next []int32
	to   []int32
	cap  []int64

	level, iter, queue []int32
	side               []bool
}

// Reset empties the network and gives it n nodes, numbered 0..n-1, keeping
// its arrays. The zero Graph is an empty network of no nodes.
func (g *Graph) Reset(n int) {
	g.head = resize(g.head, n)
	for i := range g.head {
		g.head[i] = -1
	}
	g.next, g.to, g.cap = g.next[:0], g.to[:0], g.cap[:0]
}

// AddEdge adds a directed edge u→v with the given capacity (and a zero-
// capacity reverse edge).
func (g *Graph) AddEdge(u, v int, cap int64) {
	if cap < 0 {
		panic("mincut: negative capacity")
	}
	e := int32(len(g.to))
	g.to = append(g.to, int32(v), int32(u))
	g.cap = append(g.cap, cap, 0)
	g.next = append(g.next, g.head[u], g.head[v])
	g.head[u], g.head[v] = e, e+1
}

// bfs levels the residual graph from s and reports whether t is reachable.
// It stops as soon as it labels t: every node nearer s than t is labelled
// by then, and a node at t's level or beyond lies on no shortest augmenting
// path, so dfs finds the same blocking flow either way.
func (g *Graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	g.level[s] = 0
	g.queue = append(g.queue[:0], int32(s))
	for qi := 0; qi < len(g.queue); qi++ {
		u := g.queue[qi]
		for e := g.head[u]; e >= 0; e = g.next[e] {
			if v := g.to[e]; g.cap[e] > 0 && g.level[v] < 0 {
				g.level[v] = g.level[u] + 1
				if v == int32(t) {
					return true
				}
				g.queue = append(g.queue, v)
			}
		}
	}
	return false
}

func (g *Graph) dfs(u, t int32, f int64) int64 {
	if u == t {
		return f
	}
	for ; g.iter[u] >= 0; g.iter[u] = g.next[g.iter[u]] {
		e := g.iter[u]
		if v := g.to[e]; g.cap[e] > 0 && g.level[v] == g.level[u]+1 {
			if d := g.dfs(v, t, min(f, g.cap[e])); d > 0 {
				g.cap[e] -= d
				g.cap[e^1] += d
				return d
			}
		}
	}
	return 0
}

// MaxFlow computes the maximum s→t flow. The graph's capacities are
// consumed; call it once per Reset.
func (g *Graph) MaxFlow(s, t int) int64 {
	n := len(g.head)
	g.level, g.iter = resize(g.level, n), resize(g.iter, n)
	var flow int64
	for g.bfs(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfs(int32(s), int32(t), Inf)
			if f == 0 {
				break
			}
			flow += f
			if flow >= Inf {
				return Inf
			}
		}
	}
	return flow
}

// MinCutSide returns, after MaxFlow has run, which nodes remain reachable
// from s in the residual graph: the source side of the inclusion-minimal
// minimum cut, the same for every maximum flow and so for any edge order.
// The slice is the graph's own, overwritten by the next call.
func (g *Graph) MinCutSide(s int) []bool {
	g.side = resize(g.side, len(g.head))
	clear(g.side)
	g.side[s] = true
	g.queue = append(g.queue[:0], int32(s))
	for len(g.queue) > 0 {
		u := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for e := g.head[u]; e >= 0; e = g.next[e] {
			if v := g.to[e]; g.cap[e] > 0 && !g.side[v] {
				g.side[v] = true
				g.queue = append(g.queue, v)
			}
		}
	}
	return g.side
}

// resize returns s at length n, contents unspecified, reusing its array.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }
