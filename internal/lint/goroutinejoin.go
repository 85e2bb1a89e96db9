package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineJoinAnalyzer checks that every goroutine launched with a
// function literal follows a recognizable join protocol, and that
// pipeline-constructor channels are drained on every consumer path. The
// hot-path packages (exec, tensor, core) release arena scopes and publish
// metrics after fan-outs; an unjoined goroutine there is a use-after-
// release or a leak that -race only catches when the schedule cooperates.
//
// Per `go func(){...}()` statement, in classification order:
//
//  1. WaitGroup protocol — the literal calls wg.Done() on a WaitGroup from
//     the enclosing function: requires a wg.Add(...) textually before the
//     launch and a wg.Wait() on every path from the launch to the exit
//     (a deferred Wait also counts). A WaitGroup reached through a struct
//     field (`defer e.wg.Done()`) still demands the Add before the launch,
//     but not the Wait — the join legitimately rides on the owning value's
//     state, typically a Close method joining a background loop.
//  2. Channel protocol — the literal sends on or closes an enclosing
//     channel: requires the channel to leave the function (returned or
//     passed on — the pipeline-constructor shape, whose consumers are
//     checked separately) or a receive/range join on every path after the
//     launch.
//  3. Neither — flagged: the goroutine has no join protocol at all.
//
// Consumer side: a call to a same-package pipeline constructor (a function
// returning a channel that is fed and closed by a goroutine it spawns)
// must drain the channel on every path — a deferred `for range ch` drain,
// a dominating range whose body cannot leave the loop early, or handing the
// channel onward. Early returns that strand the producer blocked on send
// leak the goroutine and everything it holds.
//
// Goroutines launched with a named package-local function are classified
// through that function's interprocedural summary: a WaitGroup argument
// the callee Dones demands the Add/Wait protocol at the launch site, a
// channel argument the callee sends on or closes demands the channel
// join, and a local plain function that signals nothing at all is
// flagged. External callees, function values, and methods whose protocol
// rides on receiver state stay out of reach. Test files are skipped.
var GoroutineJoinAnalyzer = &Analyzer{
	Name:         "goroutinejoin",
	Doc:          "flags goroutines with unbalanced WaitGroup/done-channel join protocols and pipeline channels not drained on every path",
	SummaryAware: true,
	Run:          runGoroutineJoin,
}

func runGoroutineJoin(p *Pass) {
	sums := p.Pkg.summaries()
	constructors := pipelineConstructors(p)
	p.eachBody(func(fb *funcBody) {
		goroutineJoinFunc(p, sums, fb)
		pipelineConsumerCheck(p, fb, constructors)
	})
}

// goroutineJoinFunc checks every go statement in one function body.
func goroutineJoinFunc(p *Pass, sums *summarySet, fb *funcBody) {
	for _, n := range fb.cfg().nodes {
		gs, ok := n.stmt.(*ast.GoStmt)
		if !ok {
			continue
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			goLitCheck(p, sums, fb, n, gs, lit)
		} else {
			goNamedCheck(p, sums, fb, n, gs)
		}
	}
}

// goLitCheck classifies a `go func(){...}()` launch by the literal's body.
func goLitCheck(p *Pass, sums *summarySet, fb *funcBody, n *cfgNode, gs *ast.GoStmt, lit *ast.FuncLit) {
	info, cfg := p.Pkg.Info, fb.cfg()
	if wg := enclosingWaitGroupDone(info, lit, fb.body); wg != nil {
		if !callPrecedes(info, fb.body, "Add", wg, gs.Pos()) {
			p.Reportf(gs.Pos(), "goroutine calls %s.Done but no %s.Add precedes the launch", wg.Name(), wg.Name())
		} else if !joinsEveryPath(sums, cfg, n, waitGroupProtocol.terminal, wg) {
			p.Reportf(gs.Pos(), "goroutine joined by %s.Wait, but a path from the launch reaches return without waiting", wg.Name())
		}
		return
	}
	if wgf := fieldWaitGroupDone(info, lit); wgf != nil {
		if !callPrecedes(info, fb.body, "Add", wgf, gs.Pos()) {
			p.Reportf(gs.Pos(), "goroutine calls %s.Done but no %s.Add precedes the launch", wgf.Name(), wgf.Name())
		}
		// The Wait rides on the owning value's state — typically a Close
		// method joining the loop — which this function can't see. The
		// Add-before-launch half of the protocol is still checkable.
		return
	}
	chans := enclosingChannelActivity(info, lit, fb.body)
	if len(chans) == 0 {
		p.Reportf(gs.Pos(), "goroutine has no join protocol: no WaitGroup.Done and no send/close on an enclosing channel")
		return
	}
	for _, ch := range chans {
		if channelLeavesFunction(info, fb, ch) || receiveJoins(info, cfg, n, ch) {
			return
		}
	}
	p.Reportf(gs.Pos(), "goroutine signals on channel %s, but no path after the launch is guaranteed to receive from it and the channel never leaves the function", chans[0].Name())
}

// goNamedCheck classifies a `go f(args...)` launch through f's summary.
func goNamedCheck(p *Pass, sums *summarySet, fb *funcBody, n *cfgNode, gs *ast.GoStmt) {
	info, cfg := p.Pkg.Info, fb.cfg()
	sum := sums.calleeSummary(gs.Call)
	if sum == nil {
		return // external function or function value: out of reach
	}
	// WaitGroup protocol through an argument the callee Dones.
	for i, a := range gs.Call.Args {
		pi := sum.paramIndex(i)
		if pi < 0 || !sum.params[pi].DonesWG {
			continue
		}
		wg := argRootObj(info, a)
		if wg == nil {
			continue
		}
		if !callPrecedes(info, fb.body, "Add", wg, gs.Pos()) {
			p.Reportf(gs.Pos(), "goroutine %s calls %s.Done but no %s.Add precedes the launch", sum.fn.Name(), wg.Name(), wg.Name())
		} else if !joinsEveryPath(sums, cfg, n, waitGroupProtocol.terminal, wg) {
			p.Reportf(gs.Pos(), "goroutine %s joined by %s.Wait, but a path from the launch reaches return without waiting", sum.fn.Name(), wg.Name())
		}
		return
	}
	// Channel protocol through an argument the callee sends on or closes.
	var chans []types.Object
	for i, a := range gs.Call.Args {
		pi := sum.paramIndex(i)
		if pi < 0 || !sum.params[pi].SendsChan {
			continue
		}
		if ch := argRootObj(info, a); ch != nil {
			chans = append(chans, ch)
		}
	}
	for _, ch := range chans {
		if channelLeavesFunction(info, fb, ch) || receiveJoins(info, cfg, n, ch) {
			return
		}
	}
	if len(chans) > 0 {
		p.Reportf(gs.Pos(), "goroutine %s signals on channel %s, but no path after the launch is guaranteed to receive from it and the channel never leaves the function", sum.fn.Name(), chans[0].Name())
		return
	}
	if sum.decl.Recv != nil {
		return // a method's protocol may ride on receiver state
	}
	if signalsSomehow(info, sums, sum.decl.Body) {
		return // signals on state the launch site can't see; give it the benefit
	}
	p.Reportf(gs.Pos(), "goroutine launches %s, which has no join protocol: it neither Dones a WaitGroup nor signals on a channel", sum.fn.Name())
}

// signalsSomehow reports whether a body contains any completion signal at
// all — a Done call, a channel send or close, or a delegation to a local
// function that signals through a parameter.
func signalsSomehow(info *types.Info, sums *summarySet, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		switch c := x.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if _, ok := methodCallOn(c, "Done"); ok {
				found = true
				break
			}
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
				break
			}
			if sum := sums.calleeSummary(c); sum != nil {
				for _, pf := range sum.params {
					if pf.DonesWG || pf.SendsChan {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// enclosingWaitGroupDone returns the sync.WaitGroup variable (declared
// outside the literal) on which the literal calls Done, or nil. Deferred
// closures inside the literal count (`defer wg.Done()` and variants).
func enclosingWaitGroupDone(info *types.Info, lit *ast.FuncLit, encl ast.Node) types.Object {
	var wg types.Object
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if wg != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := methodCallOn(call, "Done")
		if !ok {
			return true
		}
		obj := identObj(info, recv)
		if obj == nil || !namedType(obj.Type(), "sync", "WaitGroup") {
			return true
		}
		if declaredWithin(obj, lit) {
			return true // the literal's own WaitGroup joins its own children
		}
		wg = obj
		return false
	})
	return wg
}

// fieldObj resolves a selector expression (`e.wg`) to the struct field it
// names, or nil for anything else.
func fieldObj(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	v, ok := info.ObjectOf(sel.Sel).(*types.Var)
	if ok && v.IsField() {
		return v
	}
	return nil
}

// fieldWaitGroupDone returns the struct-field sync.WaitGroup on which the
// literal calls Done through a selector (`defer e.wg.Done()`), or nil.
func fieldWaitGroupDone(info *types.Info, lit *ast.FuncLit) *types.Var {
	var wg *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if wg != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := methodCallOn(call, "Done")
		if !ok {
			return true
		}
		f := fieldObj(info, recv)
		if f == nil || !namedType(f.Type(), "sync", "WaitGroup") {
			return true
		}
		wg = f
		return false
	})
	return wg
}

// callPrecedes reports whether a method call on obj — a local variable or
// the struct field a selector receiver names — appears before pos in body.
func callPrecedes(info *types.Info, body ast.Node, method string, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		if recv, ok := methodCallOn(call, method); ok {
			if f := fieldObj(info, recv); f != nil {
				found = f == obj
			} else {
				found = identObj(info, recv) == obj
			}
		}
		return !found
	})
	return found
}

// joinsEveryPath reports whether obj's discharging method runs on every
// path from the launch node to exit, or is deferred in the body. A call
// handing obj to a local function whose summary discharges it counts too.
func joinsEveryPath(sums *summarySet, cfg *funcCFG, launch *cfgNode, method string, obj types.Object) bool {
	joins := func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		return ok && sums.dischargesAt(call, obj, method)
	}
	return deferredAnywhere(cfg, joins) ||
		cfg.mustPassFrom(launch, func(n *cfgNode) bool { return headerContains(n, joins) })
}

// enclosingChannelActivity returns channel variables declared outside the
// literal that the literal sends on or closes.
func enclosingChannelActivity(info *types.Info, lit *ast.FuncLit, encl ast.Node) []types.Object {
	var out []types.Object
	seen := map[types.Object]bool{}
	record := func(e ast.Expr) {
		obj := identObj(info, e)
		if obj == nil || seen[obj] || declaredWithin(obj, lit) {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Chan); !ok {
			return
		}
		seen[obj] = true
		out = append(out, obj)
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			record(x.Chan)
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					record(x.Args[0])
				}
			}
		}
		return true
	})
	return out
}

// channelLeavesFunction reports whether ch is returned from the enclosing
// function, passed to a call, or stored beyond a plain local binding —
// the pipeline-constructor handoff, where joining is the consumer's job.
// Uses inside function literals don't count: the producer goroutine's own
// sends and close are its protocol, not an escape.
func channelLeavesFunction(info *types.Info, fb *funcBody, ch types.Object) bool {
	leaves := false
	parents := fb.parents()
	insideLit := func(n ast.Node) bool {
		for p := parents[n]; p != nil; p = parents[p] {
			if _, ok := p.(*ast.FuncLit); ok {
				return true
			}
		}
		return false
	}
	ast.Inspect(fb.body, func(n ast.Node) bool {
		if leaves {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || info.ObjectOf(id) != ch || insideLit(id) {
			return true
		}
		switch pn := parents[id].(type) {
		case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr:
			leaves = true
		case *ast.SendStmt:
			leaves = pn.Value == ast.Expr(id) // the channel itself sent as a value
		case *ast.CallExpr:
			if fn, ok := pn.Fun.(*ast.Ident); ok {
				if _, isBuiltin := info.ObjectOf(fn).(*types.Builtin); isBuiltin {
					break // close/len/cap in the constructor body
				}
			}
			for _, a := range pn.Args {
				if a == ast.Expr(id) {
					leaves = true // passed along; callee owns the join
				}
			}
		case *ast.AssignStmt:
			for _, r := range pn.Rhs {
				if r != ast.Expr(id) {
					continue
				}
				for _, l := range pn.Lhs {
					if _, isSel := l.(*ast.SelectorExpr); isSel || isPackageLevel(info, l) {
						leaves = true
					}
				}
			}
		}
		return !leaves
	})
	return leaves
}

func isPackageLevel(info *types.Info, e ast.Expr) bool {
	obj := identObj(info, e)
	if obj == nil {
		return false
	}
	v, ok := obj.(*types.Var)
	return ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// receiveJoins reports whether every path from the launch passes a receive
// or range over ch.
func receiveJoins(info *types.Info, cfg *funcCFG, launch *cfgNode, ch types.Object) bool {
	return cfg.mustPassFrom(launch, func(n *cfgNode) bool {
		if rs, ok := n.stmt.(*ast.RangeStmt); ok && identObj(info, rs.X) == ch {
			return true
		}
		return headerContains(n, func(x ast.Node) bool {
			ue, ok := x.(*ast.UnaryExpr)
			return ok && ue.Op == token.ARROW && identObj(info, ue.X) == ch
		})
	})
}

// pipelineConstructors summarizes the package: functions returning a
// channel that a goroutine they spawn sends on or closes. Their callers
// must drain the result.
func pipelineConstructors(p *Pass) map[types.Object]bool {
	info := p.Pkg.Info
	out := map[types.Object]bool{}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.Results == nil {
				continue
			}
			returnsChan := false
			for _, r := range fd.Type.Results.List {
				if _, ok := info.TypeOf(r.Type).Underlying().(*types.Chan); ok {
					returnsChan = true
				}
			}
			if !returnsChan {
				continue
			}
			// Does a spawned goroutine feed a channel this function returns?
			fed := map[types.Object]bool{}
			shallowGoLits(fd.Body, func(lit *ast.FuncLit) {
				for _, ch := range enclosingChannelActivity(info, lit, fd.Body) {
					fed[ch] = true
				}
			})
			if len(fed) == 0 {
				continue
			}
			returned := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range rs.Results {
					if fed[identObj(info, res)] {
						returned = true
					}
				}
				return !returned
			})
			if returned {
				if obj := info.ObjectOf(fd.Name); obj != nil {
					out[obj] = true
				}
			}
		}
	}
	return out
}

// shallowGoLits visits the function literal of each go statement directly
// inside body (not nested in other literals).
func shallowGoLits(body ast.Node, visit func(*ast.FuncLit)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				visit(lit)
			}
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return true
	})
}

// pipelineConsumerCheck flags bindings of a pipeline constructor's channel
// that are not drained on every path: no deferred `for range ch` drain, no
// dominating run-to-completion range, and the channel never handed onward.
func pipelineConsumerCheck(p *Pass, fb *funcBody, constructors map[types.Object]bool) {
	if len(constructors) == 0 {
		return
	}
	info := p.Pkg.Info
	cfg := fb.cfg()
	for _, n := range cfg.nodes {
		as, ok := n.stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			continue
		}
		callee := calleeObj(info, call)
		if callee == nil || !constructors[callee] {
			continue
		}
		ch := identObj(info, as.Lhs[0])
		if ch == nil {
			continue
		}
		if deferredDrain(info, fb.body, ch) || channelLeavesFunction(info, fb, ch) || receiveRangeDominates(info, cfg, n, ch) {
			continue
		}
		p.Reportf(as.Pos(), "pipeline channel %s from %s is not drained on every path; an early return leaves the producer goroutine blocked on send — add `defer func() { for range %s { ... } }()` after the call", ch.Name(), callee.Name(), ch.Name())
	}
}

// calleeObj resolves the called function or method object.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// deferredDrain matches `defer func() { for ... range ch { ... } }()`.
func deferredDrain(info *types.Info, body ast.Node, ch types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		lit, ok := ds.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if rs, ok := x.(*ast.RangeStmt); ok && identObj(info, rs.X) == ch {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// receiveRangeDominates reports whether every path from the binding passes
// a `for range ch` that runs to completion (which it does only once the
// producer closes ch). A loop whose body can leave early is not a drain: the
// producer stays blocked on its next send.
func receiveRangeDominates(info *types.Info, cfg *funcCFG, bind *cfgNode, ch types.Object) bool {
	return cfg.mustPassFrom(bind, func(n *cfgNode) bool {
		rs, ok := n.stmt.(*ast.RangeStmt)
		return ok && identObj(info, rs.X) == ch && !leavesLoopEarly(cfg, n, rs.Body)
	})
}

// leavesLoopEarly reports whether the loop headed by node loop can be left
// from inside its body — a return, a break or goto out, a branch to an outer
// label, an explicit panic: some body node has a successor that is neither
// in the body nor the loop header.
func leavesLoopEarly(cfg *funcCFG, loop *cfgNode, body *ast.BlockStmt) bool {
	inBody := func(n *cfgNode) bool { return n.stmt != nil && within(n.stmt.Pos(), body) }
	for _, n := range cfg.nodes {
		if !inBody(n) {
			continue
		}
		for _, s := range n.succs {
			if s != loop && !inBody(s) {
				return true
			}
		}
	}
	return false
}
