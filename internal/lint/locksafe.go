package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafeAnalyzer checks sync.Mutex / sync.RWMutex discipline with a
// forward lock-state dataflow over the function CFG, made interprocedural
// by the summary layer: lock helpers (a method that acquires and exits
// still holding) hand the held state to their callers, unlock helpers
// release it, and a call made with a lock held is checked against the
// callee's transitive may-acquire set.
//
// Finding classes:
//
//   - a Lock/RLock not matched by an unlock on every path to return —
//     panic edges included, deferred unlocks (direct, in a deferred
//     closure, or through an unlock-helper) credited;
//   - Lock-vs-RLock mismatches: releasing a read lock with Unlock (or a
//     write lock with RUnlock), and acquiring while incompatibly held
//     (double Lock, Lock under RLock, RLock under Lock);
//   - re-acquisition deadlocks: calling a function (self-recursion
//     included) that may acquire a mutex this function already holds.
//
// A function that holds a summarizable lock (receiver-, parameter-, or
// package-rooted) at every exit is treated as a lock helper, not a leak:
// the obligation transfers to its callers. The caveat is a helper chain
// nobody tops off — if no caller ever releases, nothing fires. Locks
// rooted in local variables cannot transfer and are flagged directly.
// Mutexes reached through embedding or non-identifier roots are not
// tracked. Test files are skipped.
var LockSafeAnalyzer = &Analyzer{
	Name:         "locksafe",
	Doc:          "flags mutexes locked without unlock on every path, Lock/RLock mismatches, double locks, and held-lock calls that may re-acquire",
	SummaryAware: true,
	Run:          runLockSafe,
}

func runLockSafe(p *Pass) {
	sums := p.Pkg.summaries()
	info := p.Pkg.Info
	p.eachBody(func(fb *funcBody) {
		exitf := lockCheckBody(sums, info, fb, p.Reportf)
		for k, h := range exitf.held {
			name := k.name()
			switch {
			case !h.must:
				p.Reportf(h.pos, "%s.%s is not released on every path to return; add defer %s.%s() or unlock the missed branch",
					name, h.mode.lockName(), name, h.mode.unlockName())
			case fb.decl != nil:
				if _, ok := keyToSym(info, fb.decl, k); !ok {
					p.Reportf(h.pos, "%s is locked but never unlocked, and no caller can reach it to release it", name)
				}
				// A summarizable must-held exit is the lock-helper shape:
				// the caller-side check inherits the obligation.
			}
		}
	})
}

// lockKey names one mutex inside a single function body: the root
// identifier's object plus the selector path down to the mutex.
type lockKey struct {
	root types.Object
	path string // ".mu", ".state.mu", or "" when the root is the mutex
}

func (k lockKey) name() string { return k.root.Name() + k.path }

// heldInfo is the per-path state of one held mutex.
type heldInfo struct {
	mode lockMode
	must bool      // held on every path reaching this point
	pos  token.Pos // earliest acquisition site (for leak findings)
}

// relInfo records a release of a mutex that was not locally acquired —
// the unlock-helper shape.
type relInfo struct {
	mode lockMode
	must bool
}

// lockFact is the entry state of one CFG node.
type lockFact struct {
	held map[lockKey]heldInfo
	rel  map[lockKey]relInfo
}

func newLockFact() *lockFact {
	return &lockFact{held: map[lockKey]heldInfo{}, rel: map[lockKey]relInfo{}}
}

func (f *lockFact) clone() *lockFact {
	c := newLockFact()
	for k, v := range f.held {
		c.held[k] = v
	}
	for k, v := range f.rel {
		c.rel[k] = v
	}
	return c
}

// mergeFrom folds src into f at a join point: held/released stay may-facts
// (union), must survives only when both sides agree, and the earliest
// acquisition position wins.
func (f *lockFact) mergeFrom(src *lockFact) bool {
	changed := false
	for k, sv := range src.held {
		dv, ok := f.held[k]
		if !ok {
			sv.must = false
			f.held[k] = sv
			changed = true
			continue
		}
		nv := dv
		nv.must = dv.must && sv.must
		if sv.mode == lockWrite {
			nv.mode = lockWrite
		}
		if sv.pos < nv.pos {
			nv.pos = sv.pos
		}
		if nv != dv {
			f.held[k] = nv
			changed = true
		}
	}
	for k, dv := range f.held {
		if _, ok := src.held[k]; !ok && dv.must {
			dv.must = false
			f.held[k] = dv
			changed = true
		}
	}
	for k, sv := range src.rel {
		dv, ok := f.rel[k]
		if !ok {
			sv.must = false
			f.rel[k] = sv
			changed = true
			continue
		}
		nv := dv
		nv.must = dv.must && sv.must
		if nv != dv {
			f.rel[k] = nv
			changed = true
		}
	}
	for k, dv := range f.rel {
		if _, ok := src.rel[k]; !ok && dv.must {
			dv.must = false
			f.rel[k] = dv
			changed = true
		}
	}
	return changed
}

// lockReporter receives findings during the reporting sweep; nopLockReport
// discards them (the solver's transfer passes, summary computation).
type lockReporter func(pos token.Pos, format string, args ...any)

func nopLockReport(token.Pos, string, ...any) {}

// lockOp classifies a call as a mutex operation on a tracked key.
func lockOp(info *types.Info, call *ast.CallExpr) (k lockKey, mode lockMode, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, 0, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		mode, acquire = lockWrite, true
	case "RLock":
		mode, acquire = lockRead, true
	case "Unlock":
		mode, acquire = lockWrite, false
	case "RUnlock":
		mode, acquire = lockRead, false
	default:
		return lockKey{}, 0, false, false
	}
	k, ok = mutexRef(info, sel.X)
	return k, mode, acquire, ok
}

// mutexRef decomposes the receiver of a Lock-family call into a lockKey;
// ok is false unless the receiver is a sync.Mutex/RWMutex rooted at a
// plain identifier.
func mutexRef(info *types.Info, recv ast.Expr) (lockKey, bool) {
	t := info.TypeOf(recv)
	if t == nil || (!namedType(t, "sync", "Mutex") && !namedType(t, "sync", "RWMutex")) {
		return lockKey{}, false
	}
	root := rootIdent(recv)
	if root == nil {
		return lockKey{}, false
	}
	obj := info.ObjectOf(root)
	if obj == nil {
		return lockKey{}, false
	}
	return lockKey{root: obj, path: relPathFrom(recv, root)}, true
}

// relPathFrom renders the selector path of e relative to its root
// identifier ("s.state.mu" → ".state.mu").
func relPathFrom(e ast.Expr, root *ast.Ident) string {
	full := types.ExprString(e)
	if rest, ok := strings.CutPrefix(full, root.Name); ok {
		return rest
	}
	return full
}

func recvSym(rel string) lockSym                 { return lockSym{recv: true, param: -1, rel: rel} }
func paramSym(i int, rel string) lockSym         { return lockSym{param: i, rel: rel} }
func globalSym(o types.Object, r string) lockSym { return lockSym{param: -1, global: o, rel: r} }

// keyToSym lifts an intraprocedural lock key into the function's summary
// frame: package-level root, method receiver, or parameter. Locks rooted
// in local variables are not expressible and return false.
func keyToSym(info *types.Info, decl *ast.FuncDecl, k lockKey) (lockSym, bool) {
	if v, ok := k.root.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return globalSym(k.root, k.path), true
	}
	if decl == nil {
		return lockSym{}, false
	}
	if ro := recvObj(info, decl); ro != nil && ro == k.root {
		return recvSym(k.path), true
	}
	if i := paramObjIndex(info, decl, k.root); i >= 0 {
		return paramSym(i, k.path), true
	}
	return lockSym{}, false
}

// symToKey maps a callee's lock symbol into the caller's frame at one call
// site: the receiver expression for receiver-rooted symbols, the matching
// argument for parameter-rooted ones, the package variable directly.
func symToKey(info *types.Info, call *ast.CallExpr, sym lockSym) (lockKey, bool) {
	switch {
	case sym.global != nil:
		return lockKey{root: sym.global, path: sym.rel}, true
	case sym.recv:
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return lockKey{}, false
		}
		return exprKey(info, sel.X, sym.rel)
	case sym.param >= 0 && sym.param < len(call.Args):
		a := call.Args[sym.param]
		for {
			if pe, ok := a.(*ast.ParenExpr); ok {
				a = pe.X
				continue
			}
			if ue, ok := a.(*ast.UnaryExpr); ok && ue.Op == token.AND {
				a = ue.X
				continue
			}
			break
		}
		return exprKey(info, a, sym.rel)
	}
	return lockKey{}, false
}

func exprKey(info *types.Info, e ast.Expr, rel string) (lockKey, bool) {
	root := rootIdent(e)
	if root == nil {
		return lockKey{}, false
	}
	obj := info.ObjectOf(root)
	if obj == nil {
		return lockKey{}, false
	}
	return lockKey{root: obj, path: relPathFrom(e, root) + rel}, true
}

// recvObj returns the declared receiver object of a method, or nil.
func recvObj(info *types.Info, decl *ast.FuncDecl) types.Object {
	if decl == nil || decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return nil
	}
	return info.Defs[decl.Recv.List[0].Names[0]]
}

// paramObjIndex returns obj's position among decl's parameters, or -1.
func paramObjIndex(info *types.Info, decl *ast.FuncDecl, obj types.Object) int {
	if decl == nil || decl.Type.Params == nil {
		return -1
	}
	idx := 0
	for _, f := range decl.Type.Params.List {
		if len(f.Names) == 0 {
			idx++
			continue
		}
		for _, name := range f.Names {
			if info.Defs[name] == obj {
				return idx
			}
			idx++
		}
	}
	return -1
}

// lockCheckBody runs the lock-state analysis over one function body:
// solve to fixpoint, replay each node once against its converged entry
// fact for findings, then apply deferred releases to the exit state.
// Returns the post-defer exit fact.
func lockCheckBody(s *summarySet, info *types.Info, fb *funcBody, report lockReporter) *lockFact {
	cfg := fb.cfg()
	transfer := func(n *cfgNode, in *lockFact) *lockFact {
		out := in.clone()
		lockTransfer(s, info, n, out, nopLockReport)
		return out
	}
	facts := forwardSolve(cfg, newLockFact(), transfer,
		func(f *lockFact) *lockFact { return f.clone() },
		func(dst, src *lockFact) bool { return dst.mergeFrom(src) })

	for _, n := range cfg.nodes {
		in, ok := facts[n]
		if !ok || n.stmt == nil {
			continue
		}
		lockTransfer(s, info, n, in.clone(), report)
	}

	exitf := newLockFact()
	if f, ok := facts[cfg.exit]; ok {
		exitf = f.clone()
	}
	for k, m := range deferredLockReleases(s, info, fb.body) {
		if h, held := exitf.held[k]; held {
			switch {
			case h.mode == lockRead && m == lockWrite:
				report(h.pos, "%s is RLock-held at return but the deferred release is Unlock; use RUnlock", k.name())
			case h.mode == lockWrite && m == lockRead:
				report(h.pos, "%s is Lock-held at return but the deferred release is RUnlock; use Unlock", k.name())
			}
			delete(exitf.held, k)
		} else {
			exitf.rel[k] = relInfo{mode: m, must: true}
		}
	}
	return exitf
}

// lockTransfer applies one node's lock effects to the fact in place.
// Defers are handled at exit by lockCheckBody; go statements run on
// another goroutine and contribute nothing synchronously.
func lockTransfer(s *summarySet, info *types.Info, n *cfgNode, f *lockFact, report lockReporter) {
	switch n.stmt.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if k, mode, acquire, ok := lockOp(info, call); ok {
				applyLockOp(f, call, k, mode, acquire, report)
				return true
			}
			if s != nil {
				if sum := s.calleeSummary(call); sum != nil {
					applyCalleeLocks(info, f, call, sum, report)
				}
			}
			return true
		})
	}
}

// applyLockOp transfers one direct Lock/RLock/Unlock/RUnlock.
func applyLockOp(f *lockFact, call *ast.CallExpr, k lockKey, mode lockMode, acquire bool, report lockReporter) {
	name := k.name()
	h, held := f.held[k]
	if acquire {
		if held && h.must {
			switch {
			case mode == lockWrite && h.mode == lockWrite:
				report(call.Pos(), "second Lock of %s deadlocks: it is already locked on this path", name)
			case mode == lockWrite && h.mode == lockRead:
				report(call.Pos(), "Lock of %s while it is RLock-held deadlocks; release the read lock first", name)
			case mode == lockRead && h.mode == lockWrite:
				report(call.Pos(), "RLock of %s while it is Lock-held deadlocks; release the write lock first", name)
			}
		}
		nv := heldInfo{mode: mode, must: true, pos: call.Pos()}
		if held {
			if h.pos < nv.pos {
				nv.pos = h.pos
			}
			if h.mode == lockWrite {
				nv.mode = lockWrite
			}
		}
		f.held[k] = nv
		return
	}
	if held {
		switch {
		case h.mode == lockRead && mode == lockWrite:
			report(call.Pos(), "%s is read-locked here; release it with RUnlock, not Unlock", name)
		case h.mode == lockWrite && mode == lockRead:
			report(call.Pos(), "%s is write-locked here; release it with Unlock, not RUnlock", name)
		}
		delete(f.held, k)
		return
	}
	// Releasing a lock this function never acquired: the unlock-helper
	// shape, recorded for the caller-side summary.
	f.rel[k] = relInfo{mode: mode, must: true}
}

// applyCalleeLocks transfers a local callee's summarized lock effects and
// checks re-acquisition deadlocks against the pre-call held set.
func applyCalleeLocks(info *types.Info, f *lockFact, call *ast.CallExpr, sum *funcSummary, report lockReporter) {
	for sym, m := range sum.mayLock {
		k, ok := symToKey(info, call, sym)
		if !ok {
			continue
		}
		if h, held := f.held[k]; held && h.must && !(h.mode == lockRead && m == lockRead) {
			report(call.Pos(), "%s may %s %s, which is already held at this call; the re-acquisition deadlocks",
				sum.fn.Name(), m.lockName(), k.name())
		}
	}
	for sym, m := range sum.releasesLock {
		k, ok := symToKey(info, call, sym)
		if !ok {
			continue
		}
		if _, held := f.held[k]; held {
			delete(f.held, k)
		} else {
			f.rel[k] = relInfo{mode: m, must: true}
		}
	}
	for sym, m := range sum.holdsAtExit {
		k, ok := symToKey(info, call, sym)
		if !ok {
			continue
		}
		nv := heldInfo{mode: m, must: true, pos: call.Pos()}
		if h, held := f.held[k]; held && h.pos < nv.pos {
			nv.pos = h.pos
		}
		f.held[k] = nv
	}
}

// deferredLockReleases collects the releases every exit path runs: direct
// deferred unlocks, unlocks inside deferred closures, and deferred calls
// to unlock-helpers.
func deferredLockReleases(s *summarySet, info *types.Info, body *ast.BlockStmt) map[lockKey]lockMode {
	out := map[lockKey]lockMode{}
	record := func(call *ast.CallExpr) {
		if k, m, acquire, ok := lockOp(info, call); ok {
			if !acquire {
				out[k] = m
			}
			return
		}
		if s == nil {
			return
		}
		if sum := s.calleeSummary(call); sum != nil {
			for sym, m := range sum.releasesLock {
				if k, ok := symToKey(info, call, sym); ok {
					out[k] = m
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		ds, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		record(ds.Call)
		if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					record(call)
				}
				return true
			})
		}
		return true
	})
	return out
}

// lockSummaryFacts fills a summary's lock fields from the body analysis:
// must-held summarizable keys become holdsAtExit, must-releases become
// releasesLock, and mayLock unions every reachable acquisition.
func lockSummaryFacts(s *summarySet, n *cgNode, sum *funcSummary) {
	info := s.pkg.Info
	exitf := lockCheckBody(s, info, n.body, nopLockReport)
	for k, h := range exitf.held {
		if !h.must {
			continue
		}
		if sym, ok := keyToSym(info, n.decl, k); ok {
			if sum.holdsAtExit == nil {
				sum.holdsAtExit = map[lockSym]lockMode{}
			}
			sum.holdsAtExit[sym] = h.mode
		}
	}
	for k, r := range exitf.rel {
		if !r.must {
			continue
		}
		if sym, ok := keyToSym(info, n.decl, k); ok {
			if sum.releasesLock == nil {
				sum.releasesLock = map[lockSym]lockMode{}
			}
			sum.releasesLock[sym] = r.mode
		}
	}
	sum.mayLock = mayLockSet(s, info, n)
}

// mayLockSet collects every lock the function may acquire synchronously,
// its own operations plus local callees' transitive sets, translated into
// this function's frame. Goroutine launches and closure bodies are
// excluded (they do not acquire on the caller's control flow).
func mayLockSet(s *summarySet, info *types.Info, n *cgNode) map[lockSym]lockMode {
	var out map[lockSym]lockMode
	add := func(sym lockSym, m lockMode) {
		if out == nil {
			out = map[lockSym]lockMode{}
		}
		if cur, ok := out[sym]; !ok || (m == lockWrite && cur == lockRead) {
			out[sym] = m
		}
	}
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		switch x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if k, m, acquire, ok := lockOp(info, call); ok {
			if acquire {
				if sym, ok := keyToSym(info, n.decl, k); ok {
					add(sym, m)
				}
			}
			return true
		}
		if sum := s.calleeSummary(call); sum != nil {
			for csym, m := range sum.mayLock {
				if k, ok := symToKey(info, call, csym); ok {
					if sym, ok := keyToSym(info, n.decl, k); ok {
						add(sym, m)
					}
				}
			}
		}
		return true
	})
	return out
}
