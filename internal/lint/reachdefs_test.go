package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"sort"
	"testing"
)

// reachFixture is one type-checked function with its reaching definitions.
type reachFixture struct {
	info  *types.Info
	cfg   *funcCFG
	reach *reachDefs
	fd    *ast.FuncDecl
}

// buildReachFixture typechecks src (a complete file) and solves reaching
// definitions for its function f.
func buildReachFixture(t *testing.T, src string) *reachFixture {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "reach_test_src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			fb := &funcBody{decl: fd, typ: fd.Type, body: fd.Body}
			return &reachFixture{info: info, cfg: fb.cfg(), reach: buildReachDefs(info, fb), fd: fd}
		}
	}
	t.Fatal("no function f in source")
	return nil
}

// occ names the n-th occurrence (1-based, source order, signature included)
// of an identifier inside f.
type occ struct {
	name string
	n    int
}

func (fx *reachFixture) ident(t *testing.T, o occ) *ast.Ident {
	t.Helper()
	var ids []*ast.Ident
	ast.Inspect(fx.fd, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && id.Name == o.name {
			ids = append(ids, id)
		}
		return true
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i].Pos() < ids[j].Pos() })
	if o.n > len(ids) {
		t.Fatalf("occurrence %d of %q not found (saw %d)", o.n, o.name, len(ids))
	}
	return ids[o.n-1]
}

// nodeOf finds the CFG node whose header evaluates id.
func (fx *reachFixture) nodeOf(t *testing.T, id *ast.Ident) *cfgNode {
	t.Helper()
	for _, n := range fx.cfg.nodes {
		if headerContains(n, func(x ast.Node) bool { return x == id }) {
			return n
		}
	}
	t.Fatalf("identifier %s at %d is in no CFG node header", id.Name, id.Pos())
	return nil
}

// reachQuery asks whether occurrence use of a variable resolves to the
// definition at occurrence def, and optionally how many definitions reach
// the use (0 = unchecked).
type reachQuery struct {
	use, def occ
	resolves bool
	reaching int
}

// checkReach solves reaching definitions for src's function f and checks
// the queries and which variables (by name) are tracked. The tests below
// pin the value-flow judgments the typestate engine relies on; they keep
// the names they had against the SSA layer these judgments used to come
// from, because the test floor tracks them by name.
func checkReach(t *testing.T, src string, queries []reachQuery, tracked map[string]bool) {
	t.Helper()
	fx := buildReachFixture(t, src)
	for _, q := range queries {
		use, def := fx.ident(t, q.use), fx.ident(t, q.def)
		at := fx.nodeOf(t, use)
		if got := fx.reach.resolvesTo(use, at, def); got != q.resolves {
			t.Errorf("%v resolvesTo %v = %v, want %v", q.use, q.def, got, q.resolves)
		}
		if got := len(fx.reach.in[at][fx.info.ObjectOf(use)]); q.reaching != 0 && got != q.reaching {
			t.Errorf("%v has %d reaching defs, want %d", q.use, got, q.reaching)
		}
	}
	for name, want := range tracked {
		id := fx.ident(t, occ{name, 1})
		if got := fx.reach.tracked[fx.info.ObjectOf(id)]; got != want {
			t.Errorf("tracked[%s] = %v, want %v", name, got, want)
		}
		if _, got := fx.reach.defs[id]; got != want {
			t.Errorf("defs has %s = %v, want %v", name, got, want)
		}
	}
}

// d is a copy of a copy of a on one path and a copy of a on the other: both
// reaching definitions resolve to a's.
func TestReachDefsCopyChainResolves(t *testing.T) {
	checkReach(t, `package p
func g() int { return 0 }
func f(c bool) int {
	a := g()
	b := a
	d := b
	if c {
		d = a
	}
	return d
}`, []reachQuery{{use: occ{"d", 3}, def: occ{"a", 1}, resolves: true, reaching: 2}}, nil)
}

func TestReachDefsOverwriteSeparateDefs(t *testing.T) {
	checkReach(t, `package p
func g() int { return 0 }
func f() int {
	a := g()
	a = g()
	return a
}`, []reachQuery{
		{use: occ{"a", 3}, def: occ{"a", 1}, resolves: false, reaching: 1},
		{use: occ{"a", 3}, def: occ{"a", 2}, resolves: true},
	}, nil)
}

// Where SSA placed a phi, a diamond join shows as two reaching definitions,
// and the use resolves to neither branch's alone.
func TestReachDefsDiamondPhi(t *testing.T) {
	checkReach(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`, []reachQuery{
		{use: occ{"x", 4}, def: occ{"x", 2}, resolves: false, reaching: 2},
		{use: occ{"x", 4}, def: occ{"x", 3}, resolves: false},
		{use: occ{"x", 4}, def: occ{"x", 1}, resolves: false},
	}, nil)
}

// A loop-carried variable must not collapse to its pre-loop definition.
func TestReachDefsLoopPhi(t *testing.T) {
	checkReach(t, `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`, []reachQuery{{use: occ{"s", 3}, def: occ{"s", 1}, resolves: false, reaching: 2}}, nil)
}

// A tuple assignment defines every LHS; the guard reads that err.
func TestReachDefsTupleAssignDefs(t *testing.T) {
	checkReach(t, `package p
func g() (int, error) { return 0, nil }
func f() error {
	v, err := g()
	if err != nil {
		return err
	}
	_ = v
	return nil
}`, []reachQuery{
		{use: occ{"err", 2}, def: occ{"err", 1}, resolves: true, reaching: 1},
		{use: occ{"v", 2}, def: occ{"v", 1}, resolves: true},
	}, nil)
}

// Parameters and named results are defined at entry; out = a copies the
// parameter.
func TestReachDefsParamsDefinedAtEntry(t *testing.T) {
	checkReach(t, `package p
func f(a int) (out int) {
	out = a
	return out
}`, []reachQuery{
		{use: occ{"a", 2}, def: occ{"a", 1}, resolves: true, reaching: 1},
		{use: occ{"out", 3}, def: occ{"a", 1}, resolves: true},
		{use: occ{"out", 3}, def: occ{"out", 1}, resolves: false},
	}, nil)
}

// Address-taken and closure-captured variables are excluded.
func TestReachDefsUnsafeVarsExcluded(t *testing.T) {
	checkReach(t, `package p
func sink(p *int) {}
func f() int {
	a := 1
	sink(&a)
	b := 2
	go func() { _ = b }()
	c := 3
	return a + b + c
}`, []reachQuery{{use: occ{"a", 3}, def: occ{"a", 1}, resolves: false}},
		map[string]bool{"a": false, "b": false, "c": true})
}

// A variable mentioned in a defer reads its exit-time value: excluded.
func TestReachDefsDeferMentionExcluded(t *testing.T) {
	checkReach(t, `package p
func end(x int) {}
func f() {
	a := 1
	defer end(a)
	b := 2
	_ = b
}`, nil, map[string]bool{"a": false, "b": true})
}
