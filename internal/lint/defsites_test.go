package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"testing"
)

// The tests below pin defSites — which variables a CFG node defines — and
// the re-binding walk built on it (overwriteReachable). They keep the names
// they had against the reaching-definitions solver defSites used to feed,
// because the test floor tracks them by name; the solver's own tests went
// with it.

// defFixture is function f of a type-checked source with its CFG.
type defFixture struct {
	info *types.Info
	cfg  *funcCFG
}

func buildDefFixture(t *testing.T, src string) *defFixture {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "defsites_test_src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return &defFixture{info: info, cfg: buildCFG(fd.Body)}
		}
	}
	t.Fatal("no function f in source")
	return nil
}

// nodes returns the CFG's statement nodes in source order.
func (fx *defFixture) nodes() []*cfgNode {
	var out []*cfgNode
	for _, n := range fx.cfg.nodes {
		if n.stmt != nil {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].stmt.Pos() < out[j].stmt.Pos() })
	return out
}

// defs lists the names each defining node defines, in source order.
func (fx *defFixture) defs() [][]string {
	var out [][]string
	for _, n := range fx.nodes() {
		var names []string
		for _, obj := range defSites(fx.info, n) {
			names = append(names, obj.Name())
		}
		if names != nil {
			out = append(out, names)
		}
	}
	return out
}

// overwritten reports whether the k-th (0-based) definition of name is
// overwritten before a node satisfying discharges.
func (fx *defFixture) overwritten(t *testing.T, name string, k int, discharges func(*cfgNode) bool) bool {
	t.Helper()
	for _, n := range fx.nodes() {
		for _, obj := range defSites(fx.info, n) {
			if obj.Name() != name {
				continue
			}
			if k == 0 {
				return overwriteReachable(fx.info, fx.cfg, obj, n, discharges)
			}
			k--
		}
	}
	t.Fatalf("definition %d of %s not found", k, name)
	return false
}

func noDischarge(*cfgNode) bool { return false }

// A tuple assignment defines every named LHS; the blank identifier none.
func TestReachDefsTupleAssignDefs(t *testing.T) {
	fx := buildDefFixture(t, `package p
func g() (int, int, error) { return 0, 0, nil }
func f() error {
	v, _, err := g()
	var w, x = v, 2
	_, _ = w, x
	return err
}`)
	if got, want := fx.defs(), [][]string{{"v", "err"}, {"w", "x"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("defs = %v, want %v", got, want)
	}
}

// A re-assignment is a second definition of the same variable: the first
// value's handle is gone unless a discharging node stands between them.
func TestReachDefsOverwriteSeparateDefs(t *testing.T) {
	fx := buildDefFixture(t, `package p
func g() int { return 0 }
func end(int) {}
func f() int {
	a := g()
	end(a)
	a = g()
	return a
}`)
	if got, want := fx.defs(), [][]string{{"a"}, {"a"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("defs = %v, want %v", got, want)
	}
	if !fx.overwritten(t, "a", 0, noDischarge) {
		t.Error("the re-assignment is not seen as overwriting the first definition")
	}
	if fx.overwritten(t, "a", 0, callsTo("end")) {
		t.Error("a discharge before the re-assignment does not stop the walk")
	}
	if fx.overwritten(t, "a", 1, noDischarge) {
		t.Error("the last definition is reported as overwritten")
	}
}

// Branch assignments are definitions on their own nodes; either one
// overwrites the definition above the branch.
func TestReachDefsDiamondPhi(t *testing.T) {
	fx := buildDefFixture(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	} else {
		x = 3
	}
	return x
}`)
	if got, want := fx.defs(), [][]string{{"x"}, {"x"}, {"x"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("defs = %v, want %v", got, want)
	}
	if !fx.overwritten(t, "x", 0, noDischarge) {
		t.Error("branch assignments do not overwrite the definition above them")
	}
}

// Updates (+=, ++) and range variables are definitions, and a definition
// inside a loop reaches itself around the back edge.
func TestReachDefsLoopPhi(t *testing.T) {
	fx := buildDefFixture(t, `package p
func g() int { return 0 }
func f(xs []int) int {
	s := 0
	for i := 0; i < len(xs); i++ {
		s += i
	}
	for k, v := range xs {
		h := g()
		s += k + v + h
	}
	return s
}`)
	want := [][]string{{"s"}, {"i"}, {"i"}, {"s"}, {"k", "v"}, {"h"}, {"s"}}
	if got := fx.defs(); !reflect.DeepEqual(got, want) {
		t.Errorf("defs = %v, want %v", got, want)
	}
	if !fx.overwritten(t, "h", 0, noDischarge) {
		t.Error("a definition inside a loop does not reach itself around the back edge")
	}
}
