package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src (a complete file) and returns the body of its first
// function declaration.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test_src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fd.Body
		}
	}
	t.Fatal("no function in source")
	return nil
}

// nodeCalling finds the CFG node whose statement is a call to the named
// function (or whose header contains one).
func nodeCalling(t *testing.T, cfg *funcCFG, name string) *cfgNode {
	t.Helper()
	for _, n := range cfg.nodes {
		if n.stmt == nil {
			continue
		}
		if headerContains(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == name
		}) {
			return n
		}
	}
	t.Fatalf("no node calling %s", name)
	return nil
}

func callsTo(name string) func(*cfgNode) bool {
	return func(n *cfgNode) bool {
		return headerContains(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == name
		})
	}
}

func TestMustPassEarlyReturn(t *testing.T) {
	cfg := buildCFG(parseBody(t, `package p
func f(a bool) int {
	acquire()
	if a {
		return 0
	}
	release()
	return 1
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass held despite the early return skipping release")
	}
}

func TestMustPassBothBranches(t *testing.T) {
	cfg := buildCFG(parseBody(t, `package p
func f(a bool) int {
	acquire()
	if a {
		release()
		return 0
	}
	release()
	return 1
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if !cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass failed although both branches release")
	}
}

func TestMustPassPanicEdge(t *testing.T) {
	cfg := buildCFG(parseBody(t, `package p
func f(a bool) {
	acquire()
	if a {
		panic("boom")
	}
	release()
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass held although the panic path skips release")
	}
	marked := false
	for _, n := range cfg.nodes {
		if n.panics {
			marked = true
			if len(n.succs) != 1 || n.succs[0] != cfg.exit {
				t.Error("panic node does not edge straight to exit")
			}
		}
	}
	if !marked {
		t.Error("no CFG node marked as panicking")
	}
}

func TestMustPassThroughLoop(t *testing.T) {
	// The release after the loop dominates the exit even with the loop's
	// back edge; the conservative loop-exit edge must not break it.
	cfg := buildCFG(parseBody(t, `package p
func f(n int) {
	acquire()
	for i := 0; i < n; i++ {
		work(i)
	}
	release()
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if !cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass lost through the loop back edge")
	}
}

func TestMustPassBreakSkips(t *testing.T) {
	// A break jumps past the release inside the loop body.
	cfg := buildCFG(parseBody(t, `package p
func f(n int) {
	acquire()
	for i := 0; i < n; i++ {
		if i > 2 {
			break
		}
		release()
	}
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass held although break (and the zero-iteration case) skip release")
	}
}

func TestSwitchDefaultBlocksFallthroughEdge(t *testing.T) {
	// With a default clause, control cannot skip the switch body entirely.
	cfg := buildCFG(parseBody(t, `package p
func f(k int) {
	acquire()
	switch k {
	case 0:
		release()
	default:
		release()
	}
}`))
	origin := nodeCalling(t, cfg, "acquire")
	if !cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass failed although every switch clause releases")
	}

	// Without a default, the no-match path skips every clause.
	cfg = buildCFG(parseBody(t, `package p
func f(k int) {
	acquire()
	switch k {
	case 0:
		release()
	}
}`))
	origin = nodeCalling(t, cfg, "acquire")
	if cfg.mustPassFrom(origin, callsTo("release")) {
		t.Error("must-pass held although a defaultless switch can match nothing")
	}
}

func TestHeaderNodesExcludeNestedBodies(t *testing.T) {
	// The if-statement's CFG node must expose only its condition: the call
	// inside its body belongs to the body's own node.
	body := parseBody(t, `package p
func f(a bool) {
	if cond(a) {
		inside()
	}
}`)
	cfg := buildCFG(body)
	var ifNode *cfgNode
	for _, n := range cfg.nodes {
		if _, ok := n.stmt.(*ast.IfStmt); ok {
			ifNode = n
		}
	}
	if ifNode == nil {
		t.Fatal("no if node in CFG")
	}
	if !headerContains(ifNode, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "cond"
	}) {
		t.Error("if header does not expose its condition")
	}
	if headerContains(ifNode, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "inside"
	}) {
		t.Error("if header leaks its nested body")
	}
}

func TestFuncLitsAreOpaque(t *testing.T) {
	// A function literal's body contributes no nodes to the enclosing CFG,
	// and funcBodies yields it as an independent unit.
	src := `package p
func f() {
	g := func() {
		inner()
	}
	g()
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lit.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	bodies := funcBodies(file, false)
	if len(bodies) != 2 {
		t.Fatalf("funcBodies yielded %d bodies, want 2 (decl + literal)", len(bodies))
	}
	cfg := buildCFG(bodies[0].body)
	for _, n := range cfg.nodes {
		if n.stmt == nil {
			continue
		}
		if headerContains(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return false
			}
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "inner"
		}) {
			t.Error("literal body leaked into the enclosing CFG")
		}
	}
	litCFG := buildCFG(bodies[1].body)
	found := false
	for _, n := range litCFG.nodes {
		if n.stmt != nil && strings.Contains(stmtText(n.stmt), "inner") {
			found = true
		}
	}
	if !found {
		t.Error("literal's own CFG is missing its body")
	}
}

// TestBodyIndex pins the per-package body index every flow analyzer and
// the summary layer share: each FuncDecl and each FuncLit — nested ones
// included — appears exactly once, with a CFG of its own statements built
// on first use and reused after, and bodies from _test.go files carry the
// flag eachBody filters on.
func TestBodyIndex(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(name, src string) *ast.File {
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	prod := parse("p.go", `package p
func f() {
	outer := func() {
		nested := func() {
			deep()
		}
		nested()
	}
	outer()
}`)
	test := parse("p_test.go", `package p
func helper() {
	go func() { inTest() }()
}`)
	pkg := &Package{Path: "p", Files: []*ast.File{prod, test}, testFiles: map[*ast.File]bool{test: true}}

	seen := map[*ast.BlockStmt]int{}
	calls := map[string]*funcBody{} // callee name → the body whose own CFG holds the call
	for _, fb := range pkg.bodies() {
		seen[fb.body]++
		if fb.cfg() != fb.cfg() {
			t.Error("cfg() rebuilt the graph on its second call")
		}
		for _, n := range fb.cfg().nodes {
			if name := stmtText(n.stmt); name != "" {
				if calls[name] != nil {
					t.Errorf("call to %s sits in two bodies' CFGs", name)
				}
				calls[name] = fb
			}
		}
	}
	if len(seen) != 5 {
		t.Errorf("index holds %d distinct bodies, want 5 (f, outer, nested, helper, helper's literal)", len(seen))
	}
	for body, n := range seen {
		if n != 1 {
			t.Errorf("body at %s yielded %d times, want once", fset.Position(body.Pos()), n)
		}
	}
	if fb := calls["deep"]; fb == nil || fb.lit == nil || len(fb.cfg().nodes) != 2 {
		t.Errorf("nested literal's CFG should be exactly its own call plus exit, got %+v", fb)
	}
	if fb := calls["outer"]; fb == nil || fb.decl == nil {
		t.Errorf("outer() should sit in f's own CFG, got %+v", fb)
	}
	if fb := calls["inTest"]; fb == nil || !fb.inTest {
		t.Errorf("literal in p_test.go should be flagged inTest, got %+v", fb)
	}

	var visited []*funcBody
	(&Pass{Pkg: pkg, Fset: fset}).eachBody(func(fb *funcBody) { visited = append(visited, fb) })
	if len(visited) != 3 {
		t.Errorf("eachBody visited %d bodies, want the 3 outside p_test.go", len(visited))
	}
	for _, fb := range visited {
		if fb.inTest {
			t.Errorf("eachBody visited a test-file body at %s", fset.Position(fb.body.Pos()))
		}
	}
}

// stmtText renders a statement's call name crudely for assertions.
func stmtText(s ast.Stmt) string {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
