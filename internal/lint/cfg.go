package lint

import (
	"go/ast"
	"go/token"
)

// This file is the reusable intraprocedural control-flow layer of the
// dataflow engine: a statement-level CFG over go/ast, consumed by the
// solver in dataflow.go, the summary layer and spanleak.
//
// Design choices, tuned for the analyses this repo needs:
//
//   - One node per statement, plus a synthetic exit node. Compound
//     statements (if/for/range/switch/select) get a node for their header;
//     the parts a header actually evaluates are exposed via headerNodes so
//     transfer functions never accidentally scan a nested body.
//   - Explicit panic(...) statements edge straight to exit (and are marked),
//     so "on every path" analyses naturally treat panicking paths as exits
//     that skip any straight-line cleanup below them.
//   - Loops always get an exit edge, even `for {}`: the analyses stay
//     conservative about loops that terminate via panics or runtime exits.
//   - goto, fallthrough, and labeled break/continue — absent from this
//     codebase — conservatively edge to exit rather than modeling label
//     resolution.
//   - Function literals are opaque: a FuncLit inside an expression is data,
//     not control flow, so its body gets no nodes here. Analyzers run each
//     FuncLit body as an independent function via funcBodies.
type cfgNode struct {
	stmt   ast.Stmt // nil for the synthetic exit node
	succs  []*cfgNode
	panics bool // the statement is an explicit panic(...) call
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	entry  *cfgNode
	exit   *cfgNode
	nodes  []*cfgNode
	byStmt map[ast.Stmt]*cfgNode
}

// buildCFG constructs the CFG for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	c := &funcCFG{byStmt: map[ast.Stmt]*cfgNode{}}
	c.exit = &cfgNode{}
	c.nodes = append(c.nodes, c.exit)
	b := &cfgBuilder{cfg: c}
	c.entry = b.block(body.List, c.exit)
	return c
}

type cfgBuilder struct {
	cfg *funcCFG
	// breaks and continues are the innermost-last targets of unlabeled
	// break/continue statements.
	breaks    []*cfgNode
	continues []*cfgNode
}

func (b *cfgBuilder) node(s ast.Stmt) *cfgNode {
	n := &cfgNode{stmt: s}
	b.cfg.nodes = append(b.cfg.nodes, n)
	b.cfg.byStmt[s] = n
	return n
}

// block builds a statement list backwards so each statement links to its
// successor; it returns the entry node of the sequence (next when empty).
func (b *cfgBuilder) block(stmts []ast.Stmt, next *cfgNode) *cfgNode {
	for i := len(stmts) - 1; i >= 0; i-- {
		next = b.stmt(stmts[i], next)
	}
	return next
}

// stmt builds one statement's subgraph and returns its entry node.
func (b *cfgBuilder) stmt(s ast.Stmt, next *cfgNode) *cfgNode {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.block(st.List, next)

	case *ast.LabeledStmt:
		n := b.node(st)
		n.succs = []*cfgNode{b.stmt(st.Stmt, next)}
		return n

	case *ast.ReturnStmt:
		n := b.node(st)
		n.succs = []*cfgNode{b.cfg.exit}
		return n

	case *ast.BranchStmt:
		n := b.node(st)
		switch {
		case st.Tok == token.BREAK && st.Label == nil && len(b.breaks) > 0:
			n.succs = []*cfgNode{b.breaks[len(b.breaks)-1]}
		case st.Tok == token.CONTINUE && st.Label == nil && len(b.continues) > 0:
			n.succs = []*cfgNode{b.continues[len(b.continues)-1]}
		default:
			// goto / fallthrough / labeled branches: conservative exit edge.
			n.succs = []*cfgNode{b.cfg.exit}
		}
		return n

	case *ast.IfStmt:
		n := b.node(st)
		thenEntry := b.block(st.Body.List, next)
		elseEntry := next
		if st.Else != nil {
			elseEntry = b.stmt(st.Else, next)
		}
		n.succs = []*cfgNode{thenEntry, elseEntry}
		return b.withInit(st.Init, n)

	case *ast.ForStmt:
		cond := b.node(st)
		backEdge := cond
		if st.Post != nil {
			post := b.node(st.Post)
			post.succs = []*cfgNode{cond}
			backEdge = post
		}
		b.breaks = append(b.breaks, next)
		b.continues = append(b.continues, backEdge)
		bodyEntry := b.block(st.Body.List, backEdge)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		cond.succs = []*cfgNode{bodyEntry, next}
		return b.withInit(st.Init, cond)

	case *ast.RangeStmt:
		n := b.node(st)
		b.breaks = append(b.breaks, next)
		b.continues = append(b.continues, n)
		bodyEntry := b.block(st.Body.List, n)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		n.succs = []*cfgNode{bodyEntry, next}
		return n

	case *ast.SwitchStmt:
		return b.switchStmt(st, st.Init, st.Body, next)

	case *ast.TypeSwitchStmt:
		return b.switchStmt(st, st.Init, st.Body, next)

	case *ast.SelectStmt:
		n := b.node(st)
		b.breaks = append(b.breaks, next)
		for _, cl := range st.Body.List {
			cc := cl.(*ast.CommClause)
			bodyEntry := b.block(cc.Body, next)
			if cc.Comm != nil {
				comm := b.node(cc.Comm)
				comm.succs = []*cfgNode{bodyEntry}
				bodyEntry = comm
			}
			n.succs = append(n.succs, bodyEntry)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if len(n.succs) == 0 {
			n.succs = []*cfgNode{next}
		}
		return n

	default:
		n := b.node(s)
		if isPanicStmt(s) {
			n.panics = true
			n.succs = []*cfgNode{b.cfg.exit}
		} else {
			n.succs = []*cfgNode{next}
		}
		return n
	}
}

// withInit prepends a node for a compound statement's init clause.
func (b *cfgBuilder) withInit(init ast.Stmt, entry *cfgNode) *cfgNode {
	if init == nil {
		return entry
	}
	in := b.node(init)
	in.succs = []*cfgNode{entry}
	return in
}

// switchStmt builds an (expression or type) switch: the header fans out to
// every clause body; control reaches next directly only when no default
// clause exists. fallthrough is handled by the conservative BranchStmt
// default (edge to exit); this codebase doesn't use it.
func (b *cfgBuilder) switchStmt(st ast.Stmt, init ast.Stmt, body *ast.BlockStmt, next *cfgNode) *cfgNode {
	n := b.node(st)
	b.breaks = append(b.breaks, next)
	hasDefault := false
	for _, cl := range body.List {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		n.succs = append(n.succs, b.block(cc.Body, next))
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	if !hasDefault {
		n.succs = append(n.succs, next)
	}
	return b.withInit(init, n)
}

// isPanicStmt reports whether s is a bare panic(...) call statement.
func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}

// headerNodes returns the AST parts a CFG node actually evaluates: for
// compound statements just the header expressions (never a nested body,
// which has its own nodes), for plain statements the statement itself.
// Callers that scan these for calls or identifier uses should skip nested
// *ast.FuncLit subtrees via shallowInspect — a closure body is data here,
// not control flow.
func headerNodes(n *cfgNode) []ast.Node {
	var out []ast.Node
	add := func(e ast.Expr) {
		if e != nil {
			out = append(out, e)
		}
	}
	switch st := n.stmt.(type) {
	case nil: // synthetic exit
	case *ast.IfStmt:
		add(st.Cond)
	case *ast.ForStmt:
		add(st.Cond)
	case *ast.RangeStmt:
		add(st.Key)
		add(st.Value)
		add(st.X)
	case *ast.SwitchStmt:
		add(st.Tag)
	case *ast.TypeSwitchStmt:
		if st.Assign != nil {
			out = append(out, st.Assign)
		}
	case *ast.SelectStmt, *ast.LabeledStmt:
		// Headers evaluate nothing; clause comms / inner statements have
		// their own nodes.
	default:
		out = append(out, n.stmt)
	}
	return out
}

// shallowInspect walks each root like ast.Inspect but does not descend into
// function literals: a FuncLit's body belongs to its own analysis, not to
// the enclosing function's statements.
func shallowInspect(root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}

// headerContains reports whether pred holds for any node in the parts the
// CFG node evaluates, skipping nested function literals.
func headerContains(n *cfgNode, pred func(ast.Node) bool) bool {
	found := false
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			if found {
				return false
			}
			if pred(x) {
				found = true
				return false
			}
			return true
		})
		if found {
			return true
		}
	}
	return found
}
