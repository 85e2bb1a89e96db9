package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// ArenaEscapeAnalyzer tracks tensors allocated under a step-scoped
// tensor.Scope and flags lifetimes that outlive the scope. Scope.Release
// recycles every buffer wholesale, so a scoped tensor that is still
// reachable afterwards is silent data corruption — the next batch
// overwrites its storage in place.
//
// It is a forward may-analysis over each body's CFG (forwardSolve in
// dataflow.go), tracking per scope whether it may already be released and
// which values derive from it:
//
//   - tracked scopes are `s := arena.Scope()` results (and *tensor.Scope
//     parameters);
//   - a value becomes scope-derived when it is assigned from an expression
//     that mentions the scope or an already-derived value (calls with the
//     scope as allocator, method calls and field reads on derived values,
//     composites) and its type can carry tensors;
//   - `s.Release()` marks the scope released on the paths through it;
//     `s.Recycle()` invalidates every value derived from s so far while s
//     itself stays live for the next batch; assignment to a tracked
//     variable kills its association.
//
// Three finding classes:
//
//   - use after Release: any use of a derived value (or the scope itself)
//     on a path where its scope may already be released;
//   - use after Recycle: any use of a value derived from a scope before a
//     Recycle that may have run on the path since;
//   - escape before Release: a derived value stored into a struct field, a
//     package-level variable, or sent on a channel, while a Release of its
//     scope is still reachable downstream — the stored alias outlives the
//     buffers. Handing a scope off through a channel without releasing it
//     locally (the prefetch-pipeline pattern, where the consumer releases)
//     is deliberately clean.
//
// A scope that is never released is wasteful but not corrupting, so there
// is no exit obligation. Test files are skipped.
//
// Interprocedurally, a call handing a tracked scope to a package-local
// helper whose summary releases that parameter on every path counts as
// the Release — both in the release-state transfer (so uses after the
// helper call are flagged) and in the escape check's "Release still
// reachable" test (so helper-mediated cleanup stops being a false
// negative).
var ArenaEscapeAnalyzer = &Analyzer{
	Name:         "arenaescape",
	Doc:          "flags arena-scoped tensors used after Scope.Release or Scope.Recycle, or escaping to fields/globals/channels that outlive the scope",
	SummaryAware: true,
	Run: func(p *Pass) {
		sums := p.Pkg.summaries()
		p.eachBody(func(fb *funcBody) { arenaEscapeFunc(p, sums, fb) })
	},
}

// scopeFact is one CFG node's entry state: each tracked scope and whether
// it may already be released, the values derived from a scope, and the
// derived values a Recycle has invalidated (both value → scope).
type scopeFact struct {
	released map[types.Object]bool
	derived  map[types.Object]types.Object
	recycled map[types.Object]types.Object
}

func (f *scopeFact) clone() *scopeFact {
	return &scopeFact{released: maps.Clone(f.released), derived: maps.Clone(f.derived), recycled: maps.Clone(f.recycled)}
}

// mergeFrom folds src into f (may-analysis: released on any path is
// released, first deriver wins, recycled on any path is recycled).
func (f *scopeFact) mergeFrom(src *scopeFact) bool {
	changed := false
	for k, v := range src.released {
		if cur, ok := f.released[k]; !ok || (v && !cur) {
			f.released[k] = v
			changed = true
		}
	}
	for _, m := range []struct{ dst, src map[types.Object]types.Object }{{f.derived, src.derived}, {f.recycled, src.recycled}} {
		for k, v := range m.src {
			if _, ok := m.dst[k]; !ok {
				m.dst[k] = v
				changed = true
			}
		}
	}
	return changed
}

// arenaEscapeFunc solves one body to its fixpoint, then reports each node
// against its stable entry fact.
func arenaEscapeFunc(p *Pass, sums *summarySet, fb *funcBody) {
	info, cfg := p.Pkg.Info, fb.cfg()
	entry := &scopeFact{released: map[types.Object]bool{}, derived: map[types.Object]types.Object{}, recycled: map[types.Object]types.Object{}}
	if fb.typ.Params != nil {
		for _, field := range fb.typ.Params.List {
			for _, name := range field.Names {
				if obj := info.ObjectOf(name); obj != nil && scopeProtocol.carries(obj.Type()) {
					entry.released[obj] = false
				}
			}
		}
	}
	transfer := func(n *cfgNode, in *scopeFact) *scopeFact {
		out := in.clone()
		scopeTransfer(p, sums, n, out)
		return out
	}
	facts := forwardSolve(cfg, entry, transfer, (*scopeFact).clone, (*scopeFact).mergeFrom)

	reported := map[token.Pos]bool{}
	for _, n := range cfg.nodes {
		if in, ok := facts[n]; ok && n.stmt != nil {
			scopeReport(p, sums, cfg, n, in, reported)
		}
	}
}

// scopeTransfer applies one node's effect to the fact in place.
func scopeTransfer(p *Pass, sums *summarySet, n *cfgNode, f *scopeFact) {
	info := p.Pkg.Info
	if _, ok := n.stmt.(*ast.DeferStmt); ok {
		// A deferred Release runs at function exit, not here; modeling it at
		// the defer's position would poison every statement below it.
		// releaseReachable credits it separately for the escape check.
		return
	}
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv, ok := methodCallOn(call, "Recycle"); ok {
				if owner := identObj(info, recv); owner != nil {
					for v, o := range f.derived {
						if o == owner {
							delete(f.derived, v)
							f.recycled[v] = o
						}
					}
				}
			}
			for obj := range f.released {
				if sums.dischargesAt(call, obj, scopeProtocol.terminal) {
					f.released[obj] = true
				}
			}
			return true
		})
	}

	as, ok := n.stmt.(*ast.AssignStmt)
	if !ok || as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
		return
	}
	// RHS judgments use the pre-assignment state; single-RHS multi-LHS
	// (v, err := call(...)) derives every carrier LHS from the same call.
	rhsDerived := make([]types.Object, len(as.Rhs))
	rhsOrigin := make([]bool, len(as.Rhs))
	for i, r := range as.Rhs {
		if call, ok := r.(*ast.CallExpr); ok && scopeOrigin(p, call) {
			rhsOrigin[i] = true
			continue
		}
		rhsDerived[i] = derivedOf(info, r, f)
	}
	for i, l := range as.Lhs {
		obj := identObj(info, l)
		if obj == nil || obj.Name() == "_" {
			continue
		}
		ri := i
		if len(as.Rhs) == 1 {
			ri = 0
		}
		// Kill first: any assignment severs the old association.
		delete(f.derived, obj)
		delete(f.recycled, obj)
		delete(f.released, obj)
		switch {
		case rhsOrigin[ri] && len(as.Rhs) == len(as.Lhs):
			f.released[obj] = false
		case rhsDerived[ri] != nil && typeCarriesTensors(obj.Type()):
			f.derived[obj] = rhsDerived[ri]
		}
	}
}

// derivedOf returns the scope e derives from, or nil: e mentions a tracked
// scope or an already-derived value (skipping nested function literals).
func derivedOf(info *types.Info, e ast.Expr, f *scopeFact) types.Object {
	var owner types.Object
	shallowInspect(e, func(n ast.Node) bool {
		if owner != nil {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			if _, ok := f.released[obj]; ok {
				owner = obj
			} else if o, ok := f.derived[obj]; ok {
				owner = o
			}
		}
		return owner == nil
	})
	return owner
}

// scopeReport emits the findings for one node given its entry fact.
func scopeReport(p *Pass, sums *summarySet, cfg *funcCFG, n *cfgNode, in *scopeFact, reported map[token.Pos]bool) {
	info := p.Pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			p.Reportf(pos, format, args...)
		}
	}

	// Uses after Release or Recycle. The defining assignment itself
	// re-derives, so skip LHS positions.
	lhs := map[ast.Node]bool{}
	if as, ok := n.stmt.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			lhs[l] = true
		}
	}
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			if lhs[x] {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				return true
			}
			if owner, ok := in.recycled[obj]; ok {
				report(id.Pos(), "%s was allocated from scope %s before a Recycle that may have run on the way here; move the use before Recycle or copy the tensor out", obj.Name(), owner.Name())
			} else if owner, ok := in.derived[obj]; ok {
				if in.released[owner] {
					report(id.Pos(), "%s is backed by scope %s, which may already be released here; move the use before Release or copy the tensor out", obj.Name(), owner.Name())
				}
			} else if in.released[obj] && !releasesHere(n, id) {
				report(id.Pos(), "scope %s may already be released here", obj.Name())
			}
			return true
		})
	}

	// Escape while a Release is still reachable: a derived value stored to
	// a field, a package-level variable, or sent on a channel outlives the
	// buffers the Release recycles.
	escape := func(stored ast.Expr, pos token.Pos, how string) {
		obj := argRootObj(info, stored)
		owner, ok := in.derived[obj]
		if ok && releaseReachable(sums, cfg, n, owner) {
			report(pos, "%s is backed by scope %s but escapes via %s, and the scope is released before the function returns; copy it out of the scope first", obj.Name(), owner.Name(), how)
		}
	}
	switch st := n.stmt.(type) {
	case *ast.AssignStmt:
		for i, l := range st.Lhs {
			ri := i
			if len(st.Rhs) == 1 {
				ri = 0
			}
			if _, ok := l.(*ast.SelectorExpr); ok {
				escape(st.Rhs[ri], st.Pos(), "a struct field")
			} else if isPackageLevel(info, l) {
				escape(st.Rhs[ri], st.Pos(), "a package-level variable")
			}
		}
	case *ast.SendStmt:
		escape(st.Value, st.Pos(), "a channel send")
	}
}

// releasesHere reports whether id is the receiver of one of the node's own
// Release calls (a legitimate use of the scope).
func releasesHere(n *cfgNode, id *ast.Ident) bool {
	return headerContains(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		recv, ok := methodCallOn(call, scopeProtocol.terminal)
		return ok && recv == ast.Expr(id)
	})
}

// releaseReachable reports whether owner can be released after node n: a
// Release (direct or delegated) on a downstream node, or the deferred form
// of either anywhere (defers run at function exit, which is always
// downstream).
func releaseReachable(sums *summarySet, cfg *funcCFG, n *cfgNode, owner types.Object) bool {
	releases := func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		return ok && sums.dischargesAt(call, owner, scopeProtocol.terminal)
	}
	if deferredAnywhere(cfg, releases) {
		return true
	}
	for m := range cfg.reachableFrom(n) {
		if m.stmt != nil && headerContains(m, releases) {
			return true
		}
	}
	return false
}

// scopeOrigin matches a call returning *tensor.Scope from a method named
// Scope (i.e. (*tensor.Arena).Scope()).
func scopeOrigin(p *Pass, call *ast.CallExpr) bool {
	if _, ok := methodCallOn(call, "Scope"); !ok {
		return false
	}
	return namedType(p.Pkg.Info.TypeOf(call), tensorPkgPath, "Scope")
}

// typeCarriesTensors reports whether a value of type t can hold (directly
// or through pointers, slices, arrays, maps, channels, or struct fields) a
// tensor.Tensor or tensor.Scope — the types worth tracking through a scope.
func typeCarriesTensors(t types.Type) bool {
	return carriesTensors(t, map[types.Type]bool{}, 0)
}

func carriesTensors(t types.Type, seen map[types.Type]bool, depth int) bool {
	if t == nil || depth > 8 || seen[t] {
		return false
	}
	seen[t] = true
	if namedType(t, tensorPkgPath, "Tensor") || namedType(t, tensorPkgPath, "Scope") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Slice:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Array:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Map:
		return carriesTensors(u.Key(), seen, depth+1) || carriesTensors(u.Elem(), seen, depth+1)
	case *types.Chan:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesTensors(u.Field(i).Type(), seen, depth+1) {
				return true
			}
		}
	case *types.Interface:
		// An empty interface can hold anything — layer caches travel as
		// `any`. Interfaces with methods (error, io.Writer, ...) are not
		// tensor carriers in this codebase; tracking them would taint every
		// err returned from a scope-allocating call.
		return u.NumMethods() == 0
	}
	return false
}
