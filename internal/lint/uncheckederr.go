package lint

import (
	"go/ast"
	"go/types"
)

// UncheckedErrAnalyzer flags call statements in non-test code that drop an
// error return on the floor. Explicitly discarding with `_ =` remains
// legal (it is visible in review), as are `defer`/`go` statements, whose
// results Go itself discards, and writers documented to never fail
// (hash.Hash, strings.Builder, bytes.Buffer, and fmt.Fprint* into them).
// A callee's body is never consulted: a local function whose error is
// always nil is discarded with `_ =` like any other.
var UncheckedErrAnalyzer = &Analyzer{
	Name: "uncheckederr",
	Doc:  "flags statements that silently discard an error result",
	Run:  runUncheckedErr,
}

func runUncheckedErr(p *Pass) {
	errType := types.Universe.Lookup("error").Type()
	for _, f := range p.Pkg.Files {
		if p.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !resultHasError(p.Pkg.Info.TypeOf(call), errType) {
				return true
			}
			if infallible(p, call) {
				return true
			}
			p.Reportf(call.Pos(), "result of %s contains an ignored error", types.ExprString(call.Fun))
			return true
		})
	}
}

// infallible reports whether the call's error result is documented to
// always be nil: methods on hash.Hash / strings.Builder / bytes.Buffer
// values, fmt.Fprint* into a Builder or Buffer, and fmt.Print* (stdout
// diagnostics, conventionally unchecked).
func infallible(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		// Judge methods by the receiver expression's static type, so
		// interface method sets (hash.Hash64 embedding io.Writer) count.
		return isNeverFailingWriter(p.Pkg.Info.TypeOf(sel.X))
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println":
			return true
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 {
				return isNeverFailingWriter(p.Pkg.Info.TypeOf(call.Args[0])) ||
					isStdStream(p, call.Args[0])
			}
		}
	}
	return false
}

// isStdStream matches the os.Stdout / os.Stderr package variables:
// terminal diagnostics are conventionally written unchecked.
func isStdStream(p *Pass, e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := p.Pkg.Info.Uses[sel.Sel].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Path() != "os" {
		return false
	}
	return v.Name() == "Stdout" || v.Name() == "Stderr"
}

// isNeverFailingWriter matches values of any type defined in package hash
// (fnv etc. return hash.Hash variants) plus strings.Builder and
// bytes.Buffer — writers whose Write methods are documented to never
// return an error.
func isNeverFailingWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return pkg == "hash" ||
		(pkg == "strings" && name == "Builder") ||
		(pkg == "bytes" && name == "Buffer")
}

// resultHasError reports whether a call result type (single value or
// tuple) contains the built-in error type.
func resultHasError(t types.Type, errType types.Type) bool {
	switch rt := t.(type) {
	case nil:
		return false
	case *types.Tuple:
		for i := 0; i < rt.Len(); i++ {
			if types.Identical(rt.At(i).Type(), errType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(rt, errType)
	}
}
