package lint

import (
	"go/ast"
)

const obsPkgPath = "nautilus/internal/obs"

// SpanLeakAnalyzer flags obs spans that are started but not ended on every
// path to the function exit. A span that never reaches End never flushes to
// the trace sink, silently truncating the profile the cost-model
// conformance report depends on — and because obs.Span.End is idempotent,
// the fix (a defer, or an End on the missed branch) is always safe.
//
// The protocol (Start→End) is declared as a typestateSpec; the engine in
// typestate.go supplies the path analysis. A span variable counts as
// handled when:
//
//   - any defer in the function ends it (`defer sp.End()` directly, or a
//     deferred closure whose body calls sp.End() — the trainer's
//     "close spans left open by error returns" pattern), or
//   - it escapes the function — returned, stored into a struct field,
//     global, composite, map or slice, sent on a channel, passed to a call,
//     or captured by a non-deferred closure — in which case ending it is
//     the new owner's job, or
//   - every path from its creation to the exit passes a statement calling
//     sp.End() (early returns included; explicit panic(...) statements edge
//     to exit, so a panicking path with no defer fails this test — the
//     span-on-panic-path case).
//
// A Start/Child result that is never bound at all is flagged outright, as
// is a span re-bound before its End (the earlier span's only handle is
// gone) and a span started inside a loop whose deferred End sits in the
// same loop (the defer runs at function exit, not per iteration).
// Test files are skipped: test spans die with the process.
//
// The interprocedural layer sharpens both directions: passing the span to
// a package-local helper whose summary ends it on every path counts as an
// End (directly or deferred), so delegated cleanup stops being a false
// positive — while passing it to a helper that provably keeps it local
// without ending it no longer counts as an ownership-transferring escape,
// closing the delegation false-negative hole.
var SpanLeakAnalyzer = &Analyzer{
	Name:         "spanleak",
	Doc:          "flags obs spans started without End on every exit path (early returns, panics without defer, dropped span handles)",
	SummaryAware: true,
	Run:          func(p *Pass) { runTypestate(p, spanLeakSpec) },
}

// spanLeakSpec declares the Start→End obligation. No simulation leg: a span
// has no use-after-End hazard (End is idempotent), only the exit
// obligation.
var spanLeakSpec = &typestateSpec{
	origin:       spanOrigin,
	originLabel:  spanMethodName,
	unboundMsg:   "span from %s is dropped without being ended; bind it and defer End",
	protocol:     spanProtocol,
	leakMsg:      "span %s is not ended on every path to return; add defer %s.End() or end it on the missed branch",
	overwriteMsg: "span %s is re-bound before being ended; the earlier span never reaches End — end it before re-binding",
	deferLoopMsg: "span %s is started in a loop but its deferred End runs at function exit, not per iteration; end it at the end of the iteration",
}

// spanOrigin matches a call whose single result is *obs.Span from the
// span-creating methods.
func spanOrigin(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Start" && sel.Sel.Name != "Child" {
		return false
	}
	return namedType(p.Pkg.Info.TypeOf(call), obsPkgPath, "Span")
}

func spanMethodName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "Start"
}
