package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds the solver half of the dataflow engine: a backward
// must-pass (all-paths) analysis and the CFG walks spanleak and the summary
// layer share (definition sites, re-binding, enclosing loop), plus the
// per-function driver that feeds every FuncDecl and FuncLit body to an
// analysis independently.

// mustPass computes, for every node, whether every path from that node to
// the function exit passes through a statement satisfying the predicate
// (the node's own statement counts). It is a greatest-fixpoint backward
// analysis: nodes start optimistically true and are lowered until stable,
// so cycles that can only leave through a satisfying statement stay true,
// while any path that can reach exit unsatisfied — including panic edges —
// lowers everything upstream of it.
func (c *funcCFG) mustPass(satisfies func(*cfgNode) bool) map[*cfgNode]bool {
	must := make(map[*cfgNode]bool, len(c.nodes))
	sat := make(map[*cfgNode]bool, len(c.nodes))
	for _, n := range c.nodes {
		must[n] = n != c.exit
		sat[n] = n != c.exit && satisfies(n)
	}
	for changed := true; changed; {
		changed = false
		for _, n := range c.nodes {
			if n == c.exit || !must[n] || sat[n] {
				continue
			}
			ok := len(n.succs) > 0
			for _, s := range n.succs {
				if !must[s] {
					ok = false
					break
				}
			}
			if !ok {
				must[n] = false
				changed = true
			}
		}
	}
	return must
}

// mustPassFrom reports whether every path from origin's successors to exit
// passes a satisfying statement. The origin itself does not count: it is
// typically the statement that creates the tracked value.
func (c *funcCFG) mustPassFrom(origin *cfgNode, satisfies func(*cfgNode) bool) bool {
	must := c.mustPass(satisfies)
	if len(origin.succs) == 0 {
		return false
	}
	for _, s := range origin.succs {
		if !must[s] {
			return false
		}
	}
	return true
}

// enclosingLoop returns the body of the innermost for/range statement
// containing stmt, or nil.
func enclosingLoop(parents map[ast.Node]ast.Node, stmt ast.Stmt) *ast.BlockStmt {
	for n := parents[stmt]; n != nil; n = parents[n] {
		switch l := n.(type) {
		case *ast.ForStmt:
			return l.Body
		case *ast.RangeStmt:
			return l.Body
		case *ast.FuncLit:
			return nil // the loop, if any, is outside this body
		}
	}
	return nil
}

// overwriteReachable runs a blocked DFS from the successors of from, the
// node defining obj: nodes satisfying discharges stop the walk; reaching
// another definition of obj (including from itself around a loop) means the
// first value is overwritten while still owing its discharge.
func overwriteReachable(info *types.Info, cfg *funcCFG, obj types.Object, from *cfgNode, discharges func(*cfgNode) bool) bool {
	seen := map[*cfgNode]bool{}
	work := append([]*cfgNode{}, from.succs...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n.stmt != nil {
			for _, def := range defSites(info, n) {
				if def == obj {
					return true
				}
			}
			if discharges(n) {
				continue // obligation met on this path; stop expanding
			}
		}
		work = append(work, n.succs...)
	}
	return false
}

// defSites lists the variables a CFG node defines, in evaluation order.
func defSites(info *types.Info, n *cfgNode) []types.Object {
	var out []types.Object
	add := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			out = append(out, obj)
		}
	}
	switch st := n.stmt.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			add(l)
		}
	case *ast.IncDecStmt:
		add(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						add(name)
					}
				}
			}
		}
	case *ast.RangeStmt:
		add(st.Key)
		add(st.Value)
	}
	return out
}

// funcBody is one function body under analysis: a declared function or a
// function literal, each treated as an independent unit. Its CFG and
// parent map are built on first use and shared by every analyzer and the
// summary layer; a package is analyzed by one goroutine (Analyze), so the
// lazy fields need no lock.
type funcBody struct {
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	typ  *ast.FuncType
	body *ast.BlockStmt
	// inTest marks a body in a _test.go file; the flow analyzers skip those.
	inTest bool

	graph *funcCFG
	up    map[ast.Node]ast.Node
}

// cfg returns the body's control-flow graph.
func (fb *funcBody) cfg() *funcCFG {
	if fb.graph == nil {
		fb.graph = buildCFG(fb.body)
	}
	return fb.graph
}

// parents returns the child→parent map of the body's subtree, nested
// literals included.
func (fb *funcBody) parents() map[ast.Node]ast.Node {
	if fb.up == nil {
		fb.up = parentMap(fb.body)
	}
	return fb.up
}

// parentMap builds a child→parent map for the subtree.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// funcBodies yields every function body in the file — each FuncDecl and
// each FuncLit (at any nesting depth), outermost first — for independent
// analysis.
func funcBodies(f *ast.File, inTest bool) []*funcBody {
	var out []*funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, &funcBody{decl: fn, typ: fn.Type, body: fn.Body, inTest: inTest})
			}
		case *ast.FuncLit:
			out = append(out, &funcBody{lit: fn, typ: fn.Type, body: fn.Body, inTest: inTest})
		}
		return true
	})
	return out
}

// bodies returns the package's body index — every function body of every
// file, in file order — built once on first use.
func (p *Package) bodies() []*funcBody {
	p.bodyOnce.Do(func() {
		for _, f := range p.Files {
			p.bodyIdx = append(p.bodyIdx, funcBodies(f, p.testFiles[f])...)
		}
	})
	return p.bodyIdx
}

// eachBody visits every function body outside test files: the sweep of the
// flow analyzer, spanleak.
func (p *Pass) eachBody(visit func(fb *funcBody)) {
	for _, fb := range p.Pkg.bodies() {
		if !fb.inTest {
			visit(fb)
		}
	}
}

// namedType reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// methodCallOn matches a call of the form recv.sel(...) and returns the
// receiver expression; ok is false for other call shapes.
func methodCallOn(call *ast.CallExpr, sel string) (ast.Expr, bool) {
	s, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != sel {
		return nil, false
	}
	return s.X, true
}

// identObj resolves e (through parens) to the object of a plain identifier,
// or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}
