package lint

import (
	"go/ast"
	"go/types"
)

const obsPkgPath = "nautilus/internal/obs"

// SpanLeakAnalyzer flags obs spans that are started but not ended on every
// path to the function exit. A span that never reaches End never flushes to
// the trace sink, silently truncating the profile the cost-model
// conformance report depends on — and because obs.Span.End is idempotent,
// the fix (a defer, or an End on the missed branch) is always safe.
//
// Each `sp := x.Start(...)` / `sp := x.Child(...)` binding owes an End; the
// must-pass solver in dataflow.go supplies the path analysis. A span
// variable counts as handled when:
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
// Test files are skipped: test spans die with the process. A span has no
// use-after-End hazard (End is idempotent), only the exit obligation.
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
	Run: func(p *Pass) {
		sums := p.Pkg.summaries()
		p.eachBody(func(fb *funcBody) { spanLeakFunc(p, sums, fb) })
	},
}

// spanLeakFunc checks every span origin in one body: dropped handles, and
// the End obligation of each single-valued `sp := origin(...)` binding.
func spanLeakFunc(p *Pass, sums *summarySet, fb *funcBody) {
	for _, n := range fb.cfg().nodes {
		switch st := n.stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && spanOrigin(p, call) {
				p.Reportf(call.Pos(), "span from %s is dropped without being ended; bind it and defer End", call.Fun.(*ast.SelectorExpr).Sel.Name)
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				continue
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok || !spanOrigin(p, call) {
				continue
			}
			if obj := identObj(p.Pkg.Info, st.Lhs[0]); obj != nil && obj.Name() != "_" {
				spanObligation(p, sums, fb, n, call, obj)
			}
		}
	}
}

// spanObligation checks that the span bound to obj at node origin reaches
// End, reporting at most one finding: a deferred End inside the origin's
// own loop, then — unless a defer ends it or it escapes to a new owner — a
// re-binding before End, then a path to exit that misses End.
func spanObligation(p *Pass, sums *summarySet, fb *funcBody, origin *cfgNode, call *ast.CallExpr, obj types.Object) {
	info, cfg, end := p.Pkg.Info, fb.cfg(), spanProtocol.terminal
	// The span re-binds every iteration, but a defer inside the loop only
	// runs at function exit — every iteration but the last leaks until then.
	if loop := enclosingLoop(fb.parents(), origin.stmt); loop != nil && sums.deferredDischarge(loop, obj, end) {
		p.Reportf(call.Pos(), "span %s is started in a loop but its deferred End runs at function exit, not per iteration; end it at the end of the iteration", obj.Name())
		return
	}
	if sums.deferredDischarge(fb.body, obj, end) || objEscapes(info, sums, fb, obj) {
		return
	}
	// ends reports whether a node ends this span: End on the value itself,
	// or a delegation the summary layer credits.
	ends := func(n *cfgNode) bool {
		return headerContains(n, func(x ast.Node) bool {
			c, ok := x.(*ast.CallExpr)
			return ok && sums.dischargesAt(c, obj, end)
		})
	}
	if overwriteReachable(info, cfg, obj, origin, ends) {
		p.Reportf(call.Pos(), "span %s is re-bound before being ended; the earlier span never reaches End — end it before re-binding", obj.Name())
		return
	}
	if !cfg.mustPassFrom(origin, ends) {
		p.Reportf(call.Pos(), "span %s is not ended on every path to return; add defer %s.End() or end it on the missed branch", obj.Name(), obj.Name())
	}
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
