package lint

import (
	"go/ast"
	"go/types"
)

// This file builds the package-local call graph the interprocedural layer
// (summary.go) is ordered by. Nodes are the package's declared functions
// and methods; edges are direct calls between them, resolved through
// go/types so method calls land on the right *types.Func. Calls through
// function-valued expressions (parameters, fields, interface methods,
// immediately-invoked literals) cannot be resolved statically; they mark
// the caller dynamic, and summary computation treats every such call as
// able to do anything (arguments escape, obligations stay unmet).
//
// Function literals are not graph nodes: consistent with the CFG's
// opaque-literal design, a closure body belongs to its own intraprocedural
// analysis, and calls inside one do not become edges of the enclosing
// declaration. The cost is that obligations discharged inside a closure
// are invisible to summaries — the same caveat the intraprocedural
// analyzers already document.

// cgNode is one declared function or method of the package under analysis.
type cgNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	// body is the declaration's entry in the package's body index: the CFG
	// the summary fixpoint iterates over is the one the analyzers walk.
	body *funcBody
	// callees are the package-local functions this body calls directly,
	// deduplicated, in first-call order.
	callees []*cgNode
	// dynamic records a call through a function value the graph cannot
	// resolve; summaries stay conservative about what such calls do.
	dynamic bool
	// scc is the index of this node's strongly connected component in
	// callGraph.sccs (callee components first).
	scc int
}

// selfRecursive reports whether the node calls itself directly.
func (n *cgNode) selfRecursive() bool {
	for _, c := range n.callees {
		if c == n {
			return true
		}
	}
	return false
}

// callGraph is the package-local call graph plus its SCC condensation.
type callGraph struct {
	nodes map[*types.Func]*cgNode
	// order lists nodes in declaration order (file order, then position) —
	// the deterministic iteration order for everything built on the graph.
	order []*cgNode
	// sccs lists strongly connected components bottom-up: every edge
	// leaving a component targets an earlier component, so processing in
	// slice order sees callees before callers.
	sccs [][]*cgNode
}

// buildCallGraph constructs the call graph of one package.
func buildCallGraph(pkg *Package) *callGraph {
	g := &callGraph{nodes: map[*types.Func]*cgNode{}}
	for _, fb := range pkg.bodies() {
		if fb.decl == nil {
			continue
		}
		fn, ok := pkg.Info.Defs[fb.decl.Name].(*types.Func)
		if !ok {
			continue
		}
		n := &cgNode{fn: fn, decl: fb.decl, body: fb, scc: -1}
		g.nodes[fn] = n
		g.order = append(g.order, n)
	}
	for _, n := range g.order {
		seen := map[*cgNode]bool{}
		shallowInspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion, not a call
			}
			callee := calleeObj(pkg.Info, call)
			switch obj := callee.(type) {
			case *types.Func:
				if t := g.nodes[obj]; t != nil && !seen[t] {
					seen[t] = true
					n.callees = append(n.callees, t)
				}
				// External functions and interface methods are simply out of
				// the graph; call sites consult summaries and find none.
			case *types.Builtin, *types.TypeName, *types.Nil:
				// len/cap/panic/...; type conversions via Ident.
			default:
				// A function-valued variable, field, or literal: unresolvable.
				if _, isLit := call.Fun.(*ast.FuncLit); isLit || isFuncValued(pkg.Info, call.Fun) {
					n.dynamic = true
				}
			}
			return true
		})
	}
	g.condense()
	return g
}

// calleeObj resolves the called function or method object.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// isFuncValued reports whether e's static type is a function signature.
func isFuncValued(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

// condense runs Tarjan's algorithm and records the SCCs in reverse
// topological order (callees before callers) — exactly the order Tarjan
// emits components in.
func (g *callGraph) condense() {
	type frame struct {
		index, lowlink int
		onStack        bool
	}
	state := map[*cgNode]*frame{}
	var stack []*cgNode
	next := 0

	var strongconnect func(n *cgNode)
	strongconnect = func(n *cgNode) {
		f := &frame{index: next, lowlink: next}
		next++
		state[n] = f
		stack = append(stack, n)
		f.onStack = true
		for _, m := range n.callees {
			mf := state[m]
			if mf == nil {
				strongconnect(m)
				if lf := state[m]; lf.lowlink < f.lowlink {
					f.lowlink = lf.lowlink
				}
			} else if mf.onStack && mf.index < f.lowlink {
				f.lowlink = mf.index
			}
		}
		if f.lowlink == f.index {
			var scc []*cgNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				state[m].onStack = false
				m.scc = len(g.sccs)
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			g.sccs = append(g.sccs, scc)
		}
	}
	for _, n := range g.order {
		if state[n] == nil {
			strongconnect(n)
		}
	}
}
