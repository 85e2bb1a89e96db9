package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the value-flow layer of the dataflow engine: per-function
// reaching definitions, solved with forwardSolve over the statement CFG.
// The typestate engine (typestate.go) asks it two things the raw CFG
// cannot answer:
//
//   - is this method receiver a pure copy of the origin's value, so that
//     `st2 := st; st2.Close()` discharges st's obligation;
//   - does this `if err != nil` guard read the origin's own err binding,
//     not a re-assigned one.
//
// Both are one query: "is every definition reaching this use the target
// definition, or a plain-identifier copy of a variable for which the same
// holds?" The fact is variable → set of definitions that may reach a node's
// entry; a join is set union, so no phi nodes (and none of the dominator
// machinery that places them) are needed — a use the target reaches on one
// path and some other definition on another simply has two reaching
// definitions, and the query says no.
//
// Only plain local variables take part. A variable is excluded ("unsafe")
// when its address is taken, it is mentioned inside a function literal (the
// closure may write it at any time), or it is mentioned inside a defer
// (which reads the exit-time value, not the in-line one). Struct fields,
// globals and variables of an enclosing function never take part. Callers
// fall back to a syntactic answer for a variable that is not tracked.

// defSite is one variable definition inside a statement.
type defSite struct {
	obj types.Object
	id  *ast.Ident
	rhs ast.Expr // nil for zero-value declarations and updates
}

// defSites lists the variables a CFG node defines, in evaluation order.
func defSites(info *types.Info, n *cfgNode) []defSite {
	var out []defSite
	add := func(e ast.Expr, rhs ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			out = append(out, defSite{obj: obj, id: id, rhs: rhs})
		}
	}
	switch st := n.stmt.(type) {
	case *ast.AssignStmt:
		switch st.Tok {
		case token.DEFINE, token.ASSIGN:
			for i, l := range st.Lhs {
				var rhs ast.Expr
				switch {
				case len(st.Rhs) == len(st.Lhs):
					rhs = st.Rhs[i]
				case len(st.Rhs) == 1:
					rhs = st.Rhs[0] // tuple assign: every LHS defined by the call
				}
				add(l, rhs)
			}
		default: // compound assignment: an update, rhs opaque
			if len(st.Lhs) == 1 {
				add(st.Lhs[0], nil)
			}
		}
	case *ast.IncDecStmt:
		add(st.X, nil)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var rhs ast.Expr
					if len(vs.Values) == len(vs.Names) {
						rhs = vs.Values[i]
					}
					add(name, rhs)
				}
			}
		}
	case *ast.RangeStmt:
		add(st.Key, nil)
		add(st.Value, nil)
	}
	return out
}

// defSet is a set of definitions of one variable, each named by its
// defining identifier (a parameter's by its name in the signature).
type defSet map[*ast.Ident]bool

// reachFact maps each tracked variable to the definitions that may reach a
// node's entry.
type reachFact map[types.Object]defSet

// reachDefs is the reaching-definitions solution for one function body.
type reachDefs struct {
	info    *types.Info
	tracked map[types.Object]bool
	in      map[*cfgNode]reachFact // reachable nodes only
	// defs maps a defining identifier to its site, for tracked variables
	// defined on reachable nodes (the transfer function records them, and
	// it only ever runs on those) and parameters, at the entry node.
	defs map[*ast.Ident]reachDef
}

type reachDef struct {
	node *cfgNode
	rhs  ast.Expr
}

// buildReachDefs solves reaching definitions for one function body.
func buildReachDefs(info *types.Info, fb *funcBody) *reachDefs {
	r := &reachDefs{info: info, defs: map[*ast.Ident]reachDef{}}
	cfg := fb.cfg()
	r.tracked = trackedVars(info, fb)

	entry := reachFact{}
	for _, name := range paramNames(fb.typ) {
		if obj := info.ObjectOf(name); r.tracked[obj] {
			entry[obj] = defSet{name: true}
			r.defs[name] = reachDef{node: cfg.entry}
		}
	}
	transfer := func(n *cfgNode, in reachFact) reachFact {
		out := make(reachFact, len(in))
		for obj, set := range in {
			out[obj] = set // sets are shared until merge clones them
		}
		for _, site := range defSites(info, n) {
			if r.tracked[site.obj] {
				out[site.obj] = defSet{site.id: true}
				r.defs[site.id] = reachDef{node: n, rhs: site.rhs}
			}
		}
		return out
	}
	clone := func(f reachFact) reachFact {
		c := make(reachFact, len(f))
		for obj, set := range f {
			cs := make(defSet, len(set))
			for id := range set {
				cs[id] = true
			}
			c[obj] = cs
		}
		return c
	}
	merge := func(dst, src reachFact) bool {
		changed := false
		for obj, set := range src {
			ds := dst[obj]
			if ds == nil {
				ds = defSet{}
				dst[obj] = ds
			}
			for id := range set {
				if !ds[id] {
					ds[id] = true
					changed = true
				}
			}
		}
		return changed
	}
	r.in = forwardSolve(cfg, entry, transfer, clone, merge)
	return r
}

// paramNames lists the named parameters and results of a signature.
func paramNames(typ *ast.FuncType) []*ast.Ident {
	var out []*ast.Ident
	for _, fl := range []*ast.FieldList{typ.Params, typ.Results} {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if name.Name != "_" {
					out = append(out, name)
				}
			}
		}
	}
	return out
}

// trackedVars gathers the variables that take part: *types.Var locals
// declared within the function (parameters and named results included),
// minus the unsafe ones (see the file comment).
func trackedVars(info *types.Info, fb *funcBody) map[types.Object]bool {
	var root ast.Node = fb.body
	if fb.decl != nil {
		root = fb.decl
	} else if fb.lit != nil {
		root = fb.lit
	}
	vars := map[types.Object]bool{}
	add := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && !v.IsField() && declaredWithin(obj, root) {
			vars[obj] = true
		}
	}
	for _, name := range paramNames(fb.typ) {
		add(info.ObjectOf(name))
	}
	for _, n := range fb.cfg().nodes {
		for _, site := range defSites(info, n) {
			add(site.obj)
		}
	}

	dropMentioned := func(root ast.Node) {
		ast.Inspect(root, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				delete(vars, info.ObjectOf(id))
			}
			return true
		})
	}
	ast.Inspect(fb.body, func(x ast.Node) bool {
		switch u := x.(type) {
		case *ast.UnaryExpr:
			if u.Op == token.AND {
				delete(vars, identObj(info, u.X))
			}
		case *ast.FuncLit:
			dropMentioned(u.Body)
			return false
		case *ast.DeferStmt:
			dropMentioned(u.Call)
			return false
		}
		return true
	})
	return vars
}

// resolvesTo reports whether use, evaluated at node at, reads target's
// value on every path: each definition reaching it is target itself or a
// plain-identifier copy of a tracked variable that resolves to target at
// the copy. An untracked variable, an unreachable use and a copy cycle all
// answer no.
func (r *reachDefs) resolvesTo(use *ast.Ident, at *cfgNode, target *ast.Ident) bool {
	return r.resolves(r.info.ObjectOf(use), at, target, map[*ast.Ident]bool{})
}

// resolves is resolvesTo's recursion. done holds every definition already
// entered: one that resolved (any failure aborts the whole query, so a
// finished entry is a success) or one still in progress (a cycle).
func (r *reachDefs) resolves(obj types.Object, at *cfgNode, target *ast.Ident, done map[*ast.Ident]bool) bool {
	reaching := r.in[at][obj]
	if len(reaching) == 0 {
		return false
	}
	for d := range reaching {
		if d == target {
			continue
		}
		finished, entered := done[d]
		if finished {
			continue
		}
		def := r.defs[d]
		src := identObj(r.info, def.rhs) // nil unless rhs is a plain identifier
		if entered || !r.tracked[src] {
			return false
		}
		done[d] = false
		if !r.resolves(src, def.node, target, done) {
			return false
		}
		done[d] = true
	}
	return true
}
