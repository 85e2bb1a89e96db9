package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// This file is the interprocedural half of the dataflow engine: per-function
// summaries computed bottom-up over the call graph's SCC condensation, so
// the intraprocedural analyzers can see through one level of indirection —
// an obligation delegated to a helper (endSpans(sp)) is credited at the
// call site instead of being a false negative, and a value passed to a
// helper that keeps it local stops counting as an escape.
//
// The summary lattice is mixed-monotone, solved per SCC by iterating its
// members to a fixpoint against each other:
//
//   - must-facts (Discharges, errNever) start optimistically true inside
//     a recursive component and are only lowered, so a pair of mutually
//     recursive enders stays credited while any unsatisfied escape route
//     lowers the whole cycle;
//   - the may-fact (Escapes) starts at bottom (false) and only grows, the
//     usual least fixpoint.
//
// Soundness caveats, by design: function literals have no summaries (their
// bodies are opaque to the CFG and the call graph alike); calls through
// function values or interface methods resolve to nothing, so delegation
// through them is never credited and arguments passed to them always count
// as escapes.

// protocol is one must-discharge resource protocol: a value of the named
// type owes a call of its terminal method on every path to return.
type protocol struct {
	pkgPath, typeName string
	terminal          string
}

// The protocol table is the one place that says which (type, terminal
// method) pairs are must-discharge obligations. The summary layer computes
// paramFacts.Discharges for a parameter of a listed type, and spanleak
// points at its row for the terminal it credits through delegation; a
// second protocol is one row.
var (
	spanProtocol = &protocol{obsPkgPath, "Span", "End"}

	protocols = []*protocol{spanProtocol}
)

// carries reports whether t (possibly behind pointers) is the protocol's
// type.
func (pr *protocol) carries(t types.Type) bool {
	return namedType(t, pr.pkgPath, pr.typeName)
}

// protocolOf returns the protocol binding values of type t, or nil.
func protocolOf(t types.Type) *protocol {
	for _, pr := range protocols {
		if pr.carries(t) {
			return pr
		}
	}
	return nil
}

// paramFacts is what a function's summary says about one parameter.
type paramFacts struct {
	// Discharges: the terminal of the argument's protocol (its type's row in
	// the protocol table) runs on every path to return — directly, by
	// delegation, or by defer. False for a parameter of any other type.
	Discharges bool
	// Escapes: the argument may leave the callee's hands (stored, returned,
	// captured, or passed somewhere unknown).
	Escapes bool
}

// or folds g into f: each fact of the union holds when it holds for either.
func (f *paramFacts) or(g paramFacts) {
	f.Discharges = f.Discharges || g.Discharges
	f.Escapes = f.Escapes || g.Escapes
}

// funcSummary is the interprocedural fact sheet of one declared function.
type funcSummary struct {
	fn   *types.Func
	decl *ast.FuncDecl

	// params holds one fact set per signature parameter (receiver excluded).
	params []paramFacts

	// errNever: the error result is provably nil on every return. False
	// when the function has no error result or a return may be non-nil.
	errNever bool
}

// paramIndex maps a call-site argument index to a parameter index,
// folding a variadic tail onto the last parameter; -1 if out of range.
func (sum *funcSummary) paramIndex(arg int) int {
	sig := sum.fn.Type().(*types.Signature)
	n := sig.Params().Len()
	if sig.Variadic() && arg >= n-1 {
		return n - 1
	}
	if arg < n {
		return arg
	}
	return -1
}

func (sum *funcSummary) equal(o *funcSummary) bool {
	return o != nil && sum.errNever == o.errNever && slices.Equal(sum.params, o.params)
}

// summarySet is one package's interprocedural layer: the call graph plus a
// summary per declared function.
type summarySet struct {
	pkg   *Package
	graph *callGraph
	byFn  map[*types.Func]*funcSummary
}

// summaries returns the package's interprocedural summary set, computed
// once on first use and shared by every summary-aware analyzer.
func (p *Package) summaries() *summarySet {
	p.sumOnce.Do(func() { p.sums = computeSummaries(p) })
	return p.sums
}

// of returns the summary for a callee object, or nil for anything that is
// not a declared function of this package.
func (s *summarySet) of(obj types.Object) *funcSummary {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return s.byFn[fn]
}

// calleeSummary resolves a call expression to the local callee's summary,
// or nil (external function, interface method, function value).
func (s *summarySet) calleeSummary(call *ast.CallExpr) *funcSummary {
	return s.of(calleeObj(s.pkg.Info, call))
}

// computeSummaries builds the call graph and solves every SCC bottom-up.
func computeSummaries(pkg *Package) *summarySet {
	s := &summarySet{pkg: pkg, graph: buildCallGraph(pkg), byFn: map[*types.Func]*funcSummary{}}
	for _, scc := range s.graph.sccs {
		recursive := len(scc) > 1 || scc[0].selfRecursive()
		if recursive {
			for _, n := range scc {
				s.byFn[n.fn] = s.optimisticInit(n)
			}
		}
		// Bounded in case a fact interaction is not perfectly monotone; real
		// components converge in a handful of rounds.
		for round := 0; round < 4*len(scc)+8; round++ {
			changed := false
			for _, n := range scc {
				ns := s.compute(n)
				if !ns.equal(s.byFn[n.fn]) {
					s.byFn[n.fn] = ns
					changed = true
				}
			}
			if !recursive || !changed {
				break
			}
		}
	}
	return s
}

// optimisticInit seeds a recursive SCC member: must-facts true wherever the
// parameter type is eligible, may-facts at bottom.
func (s *summarySet) optimisticInit(n *cgNode) *funcSummary {
	sum := &funcSummary{fn: n.fn, decl: n.decl}
	sig := n.fn.Type().(*types.Signature)
	sum.params = make([]paramFacts, sig.Params().Len())
	for i := range sum.params {
		sum.params[i].Discharges = protocolOf(sig.Params().At(i).Type()) != nil
	}
	sum.errNever = hasErrorResult(sig)
	return sum
}

func hasErrorResult(sig *types.Signature) bool {
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// compute derives one function's summary against the current state of its
// callees' summaries (final for lower SCCs, in-flight for its own).
func (s *summarySet) compute(n *cgNode) *funcSummary {
	sum := &funcSummary{fn: n.fn, decl: n.decl}
	sig := n.fn.Type().(*types.Signature)

	sum.params = make([]paramFacts, sig.Params().Len())
	for i := range sum.params {
		obj := sig.Params().At(i)
		if obj.Name() == "" || obj.Name() == "_" {
			continue
		}
		pf := &sum.params[i]
		if pr := protocolOf(obj.Type()); pr != nil {
			pf.Discharges = s.mustDischarge(n.body, obj, pr.terminal)
		}
		pf.Escapes = objEscapes(s.pkg.Info, s, n.body, obj)
	}

	sum.errNever = s.returnsNilErr(n, sig)
	return sum
}

// mustDischarge reports whether every path from entry to return discharges
// the obligation on obj: a direct call of its protocol's terminal method, a
// call delegating to a local function whose summary discharges that
// argument, or a defer of either form.
func (s *summarySet) mustDischarge(fb *funcBody, obj types.Object, terminal string) bool {
	if s.deferredDischarge(fb.body, obj, terminal) {
		return true
	}
	cfg := fb.cfg()
	must := cfg.mustPass(func(n *cfgNode) bool {
		return headerContains(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			return ok && s.dischargesAt(call, obj, terminal)
		})
	})
	return must[cfg.entry]
}

// dischargesAt reports whether one call discharges the obligation on obj.
func (s *summarySet) dischargesAt(call *ast.CallExpr, obj types.Object, terminal string) bool {
	if recv, ok := methodCallOn(call, terminal); ok && identObj(s.pkg.Info, recv) == obj {
		return true
	}
	return s.delegated(call, obj).Discharges
}

// delegated returns what call's callee does with obj: the union of the
// local callee's summary facts over every parameter position obj is passed
// at. It is zero when the callee has no summary or obj is not an argument.
func (s *summarySet) delegated(call *ast.CallExpr, obj types.Object) (facts paramFacts) {
	sum := s.calleeSummary(call)
	if sum == nil {
		return facts
	}
	for i, a := range call.Args {
		if argRootObj(s.pkg.Info, a) != obj {
			continue
		}
		if pi := sum.paramIndex(i); pi >= 0 {
			facts.or(sum.params[pi])
		}
	}
	return facts
}

// deferredDischarge reports whether any defer in the body discharges obj:
// `defer obj.Method()`, a deferred closure containing such a call, or a
// deferred delegation to a local discharger.
func (s *summarySet) deferredDischarge(body *ast.BlockStmt, obj types.Object, terminal string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if s.dischargesAt(ds.Call, obj, terminal) {
			found = true
			return false
		}
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok && s.dischargesAt(call, obj, terminal) {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// argRootObj resolves a call argument (through parens and a leading &) to
// the object of a plain identifier, or nil.
func argRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				e = x.X
				continue
			}
		}
		break
	}
	return identObj(info, e)
}

// returnsNilErr reports whether every explicit return of the function yields
// a nil error. Naked returns, no returns, and unknown expressions make it
// false (the conservative "could be non-nil").
func (s *summarySet) returnsNilErr(n *cgNode, sig *types.Signature) bool {
	errType := types.Universe.Lookup("error").Type()
	errIdx := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errType) {
			errIdx = i
		}
	}
	if errIdx < 0 {
		return false
	}
	never := true
	returns := 0
	shallowInspect(n.decl.Body, func(x ast.Node) bool {
		rs, ok := x.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		returns++
		canNonNil := true
		switch {
		case len(rs.Results) == 0:
			// Naked return through named results: unknown.
		case len(rs.Results) == 1 && sig.Results().Len() > 1:
			// Tuple-forward: return g(...) — judged by the callee's facts.
			if call, ok := rs.Results[0].(*ast.CallExpr); ok {
				canNonNil = s.errCanBeNonNil(call)
			}
		case errIdx < len(rs.Results):
			canNonNil = s.errCanBeNonNil(rs.Results[errIdx])
		}
		if canNonNil {
			never = false
		}
		return true
	})
	return never && returns > 0
}

// errCanBeNonNil reports whether an error-position expression may evaluate
// to a non-nil error: false only for a nil literal or a call to a local
// function whose summary proves its error nil.
func (s *summarySet) errCanBeNonNil(e ast.Expr) bool {
	if tv, ok := s.pkg.Info.Types[e]; ok && tv.IsNil() {
		return false
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if sum := s.calleeSummary(call); sum != nil && sum.errNever {
			return false
		}
	}
	return true
}

// objEscapes reports whether obj's value can leave the enclosing function's
// hands: returned, stored beyond a plain rebind, placed in a composite /
// index / channel send, captured by a function literal, handed to a
// goroutine, or passed to a call not known (by local summary) to keep the
// argument local.
func objEscapes(info *types.Info, sums *summarySet, fb *funcBody, obj types.Object) bool {
	parents := fb.parents()
	escaped := false
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != obj {
			return true
		}
		if useEscapes(info, sums, parents, id) {
			escaped = true
		}
		return !escaped
	})
	return escaped
}

// useEscapes classifies one identifier use of a tracked variable.
func useEscapes(info *types.Info, sums *summarySet, parents map[ast.Node]ast.Node, id *ast.Ident) bool {
	var child ast.Node = id
	parent := parents[id]
	for {
		if pe, ok := parent.(*ast.ParenExpr); ok {
			child = pe
			parent = parents[pe]
			continue
		}
		break
	}
	// Inside any function literal, the closure owns the value's fate —
	// callers credit the deferred-discharge pattern before asking here.
	for p := parent; p != nil; p = parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	switch pn := parent.(type) {
	case *ast.SelectorExpr:
		return pn.X != child // shadowing selector like x.sp — not a use of ours
	case *ast.AssignStmt:
		for _, l := range pn.Lhs {
			if l == child {
				return false // (re)binding
			}
		}
		return true // copied into another variable
	case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.IndexExpr:
		return true
	case *ast.UnaryExpr:
		// &obj: judge the address expression by its own context.
		if pn.Op == token.AND {
			return useEscapesFrom(info, sums, parents, pn)
		}
		return false
	case *ast.CallExpr:
		return callArgEscapes(info, sums, parents, pn, child)
	case *ast.BinaryExpr:
		return false // comparisons (x == nil) don't retain
	}
	return false
}

// useEscapesFrom re-judges an enclosing expression (an &obj node) by the
// same rules, so `helper(&wg)` gets summary treatment while `s.f = &wg`
// still escapes.
func useEscapesFrom(info *types.Info, sums *summarySet, parents map[ast.Node]ast.Node, e ast.Expr) bool {
	var child ast.Node = e
	parent := parents[e]
	for {
		if pe, ok := parent.(*ast.ParenExpr); ok {
			child = pe
			parent = parents[pe]
			continue
		}
		break
	}
	if call, ok := parent.(*ast.CallExpr); ok {
		return callArgEscapes(info, sums, parents, call, child)
	}
	return true // address stored/returned/compared: keep it conservative
}

// callArgEscapes judges a value passed as a call argument: handing it to a
// goroutine or to an unknown callee is an escape; a local callee whose
// summary says the parameter stays local is not.
func callArgEscapes(info *types.Info, sums *summarySet, parents map[ast.Node]ast.Node, call *ast.CallExpr, child ast.Node) bool {
	for i, a := range call.Args {
		if a != child {
			continue
		}
		if _, ok := parents[call].(*ast.GoStmt); ok {
			return true // another goroutine owns it now
		}
		if sum := sums.calleeSummary(call); sum != nil {
			if pi := sum.paramIndex(i); pi >= 0 && !sum.params[pi].Escapes {
				return false // callee keeps it local; obligations transfer
			}
		}
		return true
	}
	return false // receiver position: obj.End(), obj.Attr(...), ...
}
