package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the declarative typestate protocol engine. A resource
// protocol — span Start→End, scope New→Release, store Open→Close, planner
// event ordering — is declared as a typestateSpec (a small state machine
// plus message templates) and the engine supplies the analysis machinery
// every protocol analyzer used to hand-roll:
//
//   - an obligation leg (spanleak's shape): every tracked origin must reach
//     its terminal event on all paths to exit, unless a defer discharges it,
//     it escapes to a new owner, or an error-guarded return proves the
//     resource was never acquired. Extras the raw analyzers lacked: a
//     re-binding check (overwriting the only handle before the terminal
//     leaks the old value) and a defer-in-loop check (a deferred terminal
//     inside the origin's own loop runs at function exit, not per
//     iteration);
//
//   - a simulation leg (arenaescape's shape): a forward may-analysis over
//     the CFG tracking each value's protocol state and the values derived
//     from it, reporting uses in bad states, protocol events fired in
//     states that forbid them, and derived values escaping while a
//     worsening event is still reachable.
//
// Both legs interface with the interprocedural summary layer: events fire
// through delegation to local helpers (summarySet.delegated /
// dischargesAt / deferredDischarge), and escapes hand the obligation to the
// new owner (objEscapes). Reaching definitions (reachdefs.go) sharpen the
// obligation leg: with copyDischarge set, a terminal called on a pure copy
// of the origin discharges it, and the error-guard exemption only credits
// returns whose guarding condition reads the origin's own error binding,
// not a reassigned one.
//
// spanleak, arenaescape, and goroutinejoin's WaitGroup leg are instances of
// this engine (their findings are bit-compatible with the hand-written
// originals); sessionorder and storelease are declared directly against it.

// useMsgs are the diagnostics for mentioning a value while its protocol
// owner sits in a given state.
type useMsgs struct {
	// derivedMsg flags a value derived from the owner; args (value, owner).
	derivedMsg string
	// directMsg flags the owner itself; args (owner). The receiver of one
	// of the spec's own event calls is exempt (the event is a legal use).
	directMsg string
}

// eventSpec is one protocol event: a method of the tracked value (or a
// local helper the summary layer proves fires the event on a parameter).
type eventSpec struct {
	method string
	// delegable marks the terminal of the value's row in the protocol table
	// (summary.go): a call passing the tracked value to a local function
	// whose summary discharges that parameter counts as the event. Other
	// events only fire through a direct method call.
	delegable bool
	// to is the state after the event; "" leaves the state unchanged.
	to string
	// keepIn lists states the event does not change (e.g. staging data on a
	// never-planned planner leaves it never-planned).
	keepIn []string
	// errDiscardedTo, when non-"", is the state entered instead of `to`
	// when the call's trailing error result is discarded at the call site
	// (bare expression statement, or `_` in the error position).
	errDiscardedTo string
	// badIn maps states in which firing this event is itself a finding to
	// the message template; args (owner).
	badIn map[string]string
}

// typestateSpec declares one protocol. Zero-valued sections disable the
// corresponding leg: a spec with no leakMsg has no exit obligation, a spec
// with no states has no state simulation.
type typestateSpec struct {
	// origin matches calls that create a tracked value.
	origin func(p *Pass, call *ast.CallExpr) bool
	// originLabel renders the origin for the unbound message.
	originLabel func(call *ast.CallExpr) string
	// errResult marks origins returning (T, error): values bind through
	// tuple assignments, and the obligation leg exempts error-guarded
	// returns (the acquire failed, there is nothing to release).
	errResult bool
	// valueType recognizes the tracked value's type: binds tuple results
	// and seeds parameters.
	valueType func(t types.Type) bool

	// unboundMsg flags an origin call used as a bare statement (the handle
	// is dropped and can never be discharged); args (originLabel).
	unboundMsg string

	// Obligation leg.
	protocol      *protocol // protocol-table row naming the discharging terminal
	leakMsg       string    // args (value, value)
	overwriteMsg  string    // non-"": check mid-protocol re-binding; args (value)
	deferLoopMsg  string    // non-"": check defer-in-loop; args (value)
	copyDischarge bool      // terminal on a pure copy (reachdefs.go) discharges

	// Simulation leg. states are ordered best→worst; path merge keeps the
	// worst (may-analysis: "may already be released/closed/failed").
	states     []string
	start      string // state of a freshly bound origin
	paramStart string // non-"": seed valueType parameters in this state
	events     []eventSpec
	derived    func(t types.Type) bool // types carrying derived values
	useInState map[string]useMsgs
	// staleOnly restricts derivedMsg to values bound before the owner
	// reached its current (worse) state: rows read before a GC are stale
	// after it, rows read after are fine.
	staleOnly bool
	// escapeEvent/escapeMsg flag derived values stored to fields, globals,
	// or channels while the named event is still reachable downstream;
	// args (value, owner, how).
	escapeEvent string
	escapeMsg   string
}

// constructorOrigin matches calls of the constructor named ctor (bare or
// package-qualified) returning (*pkgPath.typeName, error) — the origin
// shape of the errResult specs.
func constructorOrigin(ctor, pkgPath, typeName string) func(*Pass, *ast.CallExpr) bool {
	return func(p *Pass, call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name != ctor {
				return false
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name != ctor {
				return false
			}
		default:
			return false
		}
		tup, ok := p.Pkg.Info.TypeOf(call).(*types.Tuple)
		return ok && tup.Len() == 2 && namedType(tup.At(0).Type(), pkgPath, typeName)
	}
}

func (s *typestateSpec) rank(state string) int {
	for i, name := range s.states {
		if name == state {
			return i
		}
	}
	return -1
}

func (s *typestateSpec) eventByMethod(method string) *eventSpec {
	for i := range s.events {
		if s.events[i].method == method {
			return &s.events[i]
		}
	}
	return nil
}

// runTypestate drives one spec over every non-test function in the package.
func runTypestate(p *Pass, spec *typestateSpec) {
	sums := p.Pkg.summaries()
	p.eachBody(func(fb *funcBody) {
		typestateObligations(p, sums, spec, fb)
		if len(spec.states) > 0 {
			typestateSimulate(p, sums, spec, fb)
		}
	})
}

// ---------------------------------------------------------------------------
// Obligation leg
// ---------------------------------------------------------------------------

// tsOrigin is one tracked binding `v := origin(...)` (or `v, err := ...`).
type tsOrigin struct {
	obj    types.Object
	id     *ast.Ident
	errObj types.Object // bound error result, errResult specs only
	errID  *ast.Ident
	node   *cfgNode
	call   *ast.CallExpr
}

func typestateObligations(p *Pass, sums *summarySet, spec *typestateSpec, fb *funcBody) {
	info := p.Pkg.Info
	cfg := fb.cfg()

	// Dropped handles: a bare origin call as its own statement.
	if spec.unboundMsg != "" {
		for _, n := range cfg.nodes {
			es, ok := n.stmt.(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := es.X.(*ast.CallExpr); ok && spec.origin(p, call) {
				p.Reportf(call.Pos(), spec.unboundMsg, spec.originLabel(call))
			}
		}
	}
	if spec.leakMsg == "" {
		return
	}

	origins := collectOrigins(p, spec, cfg)
	if len(origins) == 0 {
		return
	}

	var reach *reachDefs // built on the first value-flow question, if any
	getReach := func() *reachDefs {
		if reach == nil {
			reach = buildReachDefs(info, fb)
		}
		return reach
	}
	terminal := spec.protocol.terminal

	for _, o := range origins {
		o := o
		// dischargeCall reports whether call, evaluated at node n, discharges
		// this origin: the terminal on the value itself, a delegation the
		// summary layer credits, or (copyDischarge) the terminal on a
		// variable whose every reaching definition is a copy of the origin's.
		dischargeCall := func(n *cfgNode, call *ast.CallExpr) bool {
			if sums.dischargesAt(call, o.obj, terminal) {
				return true
			}
			if !spec.copyDischarge {
				return false
			}
			recv, ok := methodCallOn(call, terminal)
			if !ok {
				return false
			}
			id, ok := recv.(*ast.Ident)
			if !ok || info.ObjectOf(id) == o.obj {
				return false
			}
			return getReach().resolvesTo(id, n, o.id)
		}
		dischargesNode := func(n *cfgNode) bool {
			return headerContains(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				return ok && dischargeCall(n, call)
			})
		}

		// Defer-in-loop: the origin re-binds every iteration, but a defer
		// inside the loop only runs at function exit — every iteration but
		// the last leaks until then.
		if spec.deferLoopMsg != "" {
			if loop := enclosingLoop(fb.parents(), o.node.stmt); loop != nil &&
				sums.deferredDischarge(loop, o.obj, terminal) {
				p.Reportf(o.call.Pos(), spec.deferLoopMsg, o.obj.Name())
				continue
			}
		}
		if sums.deferredDischarge(fb.body, o.obj, terminal) ||
			objEscapes(info, sums, fb, o.obj) {
			continue
		}
		// Re-binding mid-protocol: another definition of the variable is
		// reachable from the origin without passing the terminal — the
		// earlier value's only handle is gone.
		if spec.overwriteMsg != "" && overwriteReachable(info, cfg, o, dischargesNode) {
			p.Reportf(o.call.Pos(), spec.overwriteMsg, o.obj.Name())
			continue
		}
		var guards []*ast.IfStmt // errGuards(o), collected at the first return
		haveGuards := false
		satisfies := func(n *cfgNode) bool {
			if dischargesNode(n) {
				return true
			}
			if _, ok := n.stmt.(*ast.ReturnStmt); !ok || !spec.errResult || o.errObj == nil {
				return false
			}
			if !haveGuards {
				guards, haveGuards = errGuards(info, cfg, getReach(), o), true
			}
			for _, g := range guards {
				if within(n.stmt.Pos(), g.Body) {
					return true
				}
			}
			return false
		}
		if !cfg.mustPassFrom(o.node, satisfies) {
			p.Reportf(o.call.Pos(), spec.leakMsg, o.obj.Name(), o.obj.Name())
		}
	}
}

// collectOrigins finds the tracked bindings: for plain specs a single
// `v := origin(...)` assignment; for errResult specs a tuple
// `v, err := origin(...)` whose value slot has the tracked type.
func collectOrigins(p *Pass, spec *typestateSpec, cfg *funcCFG) []tsOrigin {
	info := p.Pkg.Info
	var origins []tsOrigin
	for _, n := range cfg.nodes {
		as, ok := n.stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			continue
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !spec.origin(p, call) {
			continue
		}
		if !spec.errResult {
			if len(as.Lhs) != 1 {
				continue
			}
			obj := identObj(info, as.Lhs[0])
			if obj == nil || obj.Name() == "_" {
				continue
			}
			id, _ := as.Lhs[0].(*ast.Ident)
			origins = append(origins, tsOrigin{obj: obj, id: id, node: n, call: call})
			continue
		}
		// Tuple binding: the value slot is the LHS with the tracked type;
		// the error binds last.
		var o tsOrigin
		for i, l := range as.Lhs {
			obj := identObj(info, l)
			if obj == nil || obj.Name() == "_" {
				continue
			}
			if spec.valueType != nil && spec.valueType(obj.Type()) {
				o.obj = obj
				o.id, _ = l.(*ast.Ident)
			} else if i == len(as.Lhs)-1 && types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				o.errObj = obj
				o.errID, _ = l.(*ast.Ident)
			}
		}
		if o.obj == nil {
			continue
		}
		o.node, o.call = n, call
		origins = append(origins, o)
	}
	return origins
}

// enclosingLoop returns the body of the innermost for/range statement
// containing stmt, or nil.
func enclosingLoop(parents map[ast.Node]ast.Node, stmt ast.Stmt) *ast.BlockStmt {
	for n := parents[stmt]; n != nil; n = parents[n] {
		switch l := n.(type) {
		case *ast.ForStmt:
			return l.Body
		case *ast.RangeStmt:
			return l.Body
		case *ast.FuncLit:
			return nil // the loop, if any, is outside this body
		}
	}
	return nil
}

// overwriteReachable runs a blocked BFS from the origin's successors: nodes
// discharging the obligation stop the walk; reaching another definition of
// the variable (including the origin itself around a loop) means the first
// value is overwritten while still owing its terminal.
func overwriteReachable(info *types.Info, cfg *funcCFG, o tsOrigin, discharges func(*cfgNode) bool) bool {
	seen := map[*cfgNode]bool{}
	work := append([]*cfgNode{}, o.node.succs...)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		if n.stmt != nil {
			for _, site := range defSites(info, n) {
				if site.obj == o.obj {
					return true
				}
			}
			if discharges(n) {
				continue // obligation met on this path; stop expanding
			}
		}
		work = append(work, n.succs...)
	}
	return false
}

// errGuards collects the if statements whose condition mentions the
// origin's error object. When reaching definitions track that variable the
// condition must read the origin's own binding (a reassigned err does not
// exempt); when they do not, any mention counts. A return inside a guard's
// body is exempt from the obligation: the acquire failed.
func errGuards(info *types.Info, cfg *funcCFG, reach *reachDefs, o tsOrigin) []*ast.IfStmt {
	_, precise := reach.defs[o.errID] // tracked, and bound on a reachable node
	var guards []*ast.IfStmt
	for _, n := range cfg.nodes {
		ifs, ok := n.stmt.(*ast.IfStmt)
		if !ok || ifs.Cond == nil {
			continue
		}
		mentions := false
		ast.Inspect(ifs.Cond, func(x ast.Node) bool {
			id, ok := x.(*ast.Ident)
			if !ok || info.ObjectOf(id) != o.errObj {
				return true
			}
			if precise && !reach.resolvesTo(id, n, o.errID) {
				return true // a different err reached this guard
			}
			mentions = true
			return false
		})
		if mentions {
			guards = append(guards, ifs)
		}
	}
	return guards
}

// ---------------------------------------------------------------------------
// Simulation leg
// ---------------------------------------------------------------------------

// protoBind records what a derived value was derived from, and the owner's
// state rank at binding time (for staleOnly specs).
type protoBind struct {
	owner types.Object
	rank  int
}

// protoFact is one CFG node's entry state: tracked owners' state ranks and
// the values derived from them.
type protoFact struct {
	state   map[types.Object]int
	derived map[types.Object]protoBind
}

func newProtoFact() *protoFact {
	return &protoFact{state: map[types.Object]int{}, derived: map[types.Object]protoBind{}}
}

func (f *protoFact) clone() *protoFact {
	c := newProtoFact()
	for k, v := range f.state {
		c.state[k] = v
	}
	for k, v := range f.derived {
		c.derived[k] = v
	}
	return c
}

// mergeFrom folds src into f (may-analysis: worst state wins, first deriver
// wins).
func (f *protoFact) mergeFrom(src *protoFact) bool {
	changed := false
	for k, v := range src.state {
		if cur, ok := f.state[k]; !ok || v > cur {
			f.state[k] = v
			changed = true
		}
	}
	for k, v := range src.derived {
		if _, ok := f.derived[k]; !ok {
			f.derived[k] = v
			changed = true
		}
	}
	return changed
}

func typestateSimulate(p *Pass, sums *summarySet, spec *typestateSpec, fb *funcBody) {
	info := p.Pkg.Info
	cfg := fb.cfg()
	startRank := spec.rank(spec.start)

	entry := newProtoFact()
	if spec.paramStart != "" && fb.typ.Params != nil {
		pr := spec.rank(spec.paramStart)
		for _, field := range fb.typ.Params.List {
			for _, name := range field.Names {
				obj := info.ObjectOf(name)
				if obj != nil && spec.valueType(obj.Type()) {
					entry.state[obj] = pr
				}
			}
		}
	}

	transfer := func(n *cfgNode, in *protoFact) *protoFact {
		out := in.clone()
		protoTransfer(p, sums, spec, startRank, n, out)
		return out
	}
	facts := forwardSolve(cfg, entry, transfer,
		func(f *protoFact) *protoFact { return f.clone() },
		func(dst, src *protoFact) bool { return dst.mergeFrom(src) })

	// Reporting sweep: one pass per node against its stable entry fact.
	reported := map[token.Pos]bool{}
	for _, n := range cfg.nodes {
		in, ok := facts[n]
		if !ok || n.stmt == nil {
			continue
		}
		protoReport(p, sums, spec, cfg, n, in, reported)
	}
}

// applyEvent advances one tracked object's state for an event firing.
func applyEvent(spec *typestateSpec, ev *eventSpec, f *protoFact, obj types.Object, discarded bool) {
	cur := f.state[obj]
	curName := spec.states[cur]
	for _, keep := range ev.keepIn {
		if curName == keep {
			return
		}
	}
	to := ev.to
	if discarded && ev.errDiscardedTo != "" {
		to = ev.errDiscardedTo
	}
	if to == "" {
		return
	}
	f.state[obj] = spec.rank(to)
}

// errDiscarded reports whether the call's trailing error result is dropped
// at this node: the call is a bare statement, or the error slot binds `_`.
func errDiscarded(n *cfgNode, call *ast.CallExpr) bool {
	switch st := n.stmt.(type) {
	case *ast.ExprStmt:
		return st.X == call
	case *ast.AssignStmt:
		if len(st.Rhs) != 1 || st.Rhs[0] != call || len(st.Lhs) == 0 {
			return false
		}
		id, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
		return ok && id.Name == "_"
	}
	return false
}

// protoTransfer applies one node's effect to the fact in place.
func protoTransfer(p *Pass, sums *summarySet, spec *typestateSpec, startRank int, n *cfgNode, f *protoFact) {
	info := p.Pkg.Info
	if _, ok := n.stmt.(*ast.DeferStmt); ok {
		// A deferred event runs at function exit, not here; modeling it at
		// the defer's position would poison every statement below it.
		// eventReachable credits it separately for the escape check.
		return
	}
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i := range spec.events {
				ev := &spec.events[i]
				if recv, ok := methodCallOn(call, ev.method); ok {
					if obj := identObj(info, recv); obj != nil {
						if _, tracked := f.state[obj]; tracked {
							applyEvent(spec, ev, f, obj, errDiscarded(n, call))
						}
					}
				}
				if !ev.delegable {
					continue
				}
				for obj := range f.state {
					if sums.delegated(call, obj).Discharges {
						applyEvent(spec, ev, f, obj, false)
					}
				}
			}
			return true
		})
	}

	as, ok := n.stmt.(*ast.AssignStmt)
	if !ok || as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN ||
		as.Tok == token.MUL_ASSIGN || as.Tok == token.QUO_ASSIGN {
		return
	}
	// RHS judgments use the pre-assignment state; single-RHS multi-LHS
	// (v, err := call(...)) derives every carrier LHS from the same call.
	rhsDerived := make([]*protoBind, len(as.Rhs))
	rhsOrigin := make([]bool, len(as.Rhs))
	for i, r := range as.Rhs {
		if call, ok := r.(*ast.CallExpr); ok && spec.origin(p, call) {
			rhsOrigin[i] = true
			continue
		}
		rhsDerived[i] = derivedOf(info, r, f)
	}
	for i, l := range as.Lhs {
		obj := identObj(info, l)
		if obj == nil || obj.Name() == "_" {
			continue
		}
		ri := i
		if len(as.Rhs) == 1 {
			ri = 0
		}
		// Kill first: any assignment severs the old association.
		delete(f.derived, obj)
		if _, wasTracked := f.state[obj]; wasTracked {
			delete(f.state, obj)
		}
		switch {
		case rhsOrigin[ri] && bindableOrigin(spec, as, obj):
			f.state[obj] = startRank
		case rhsDerived[ri] != nil && spec.derived != nil && spec.derived(obj.Type()):
			f.derived[obj] = *rhsDerived[ri]
		}
	}
}

// bindableOrigin reports whether this LHS receives the origin value: plain
// specs need a 1:1 assignment; errResult specs bind the tracked-type slot
// of the result tuple.
func bindableOrigin(spec *typestateSpec, as *ast.AssignStmt, obj types.Object) bool {
	if !spec.errResult {
		return len(as.Rhs) == len(as.Lhs)
	}
	return spec.valueType != nil && spec.valueType(obj.Type())
}

// derivedOf returns the binding derived by expression e, or nil: e mentions
// a tracked owner or an already-derived value (skipping nested function
// literals).
func derivedOf(info *types.Info, e ast.Expr, f *protoFact) *protoBind {
	var bind *protoBind
	shallowInspect(e, func(n ast.Node) bool {
		if bind != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return true
		}
		if rank, ok := f.state[obj]; ok {
			bind = &protoBind{owner: obj, rank: rank}
			return false
		}
		if b, ok := f.derived[obj]; ok {
			bind = &b
			return false
		}
		return true
	})
	return bind
}

// protoReport emits simulation findings for one node given its entry fact.
func protoReport(p *Pass, sums *summarySet, spec *typestateSpec, cfg *funcCFG, n *cfgNode, in *protoFact, reported map[token.Pos]bool) {
	info := p.Pkg.Info
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			p.Reportf(pos, format, args...)
		}
	}

	// Uses in a bad state: any mention of a derived value whose owner may
	// have worsened (staleOnly: past its binding state), or of an owner in
	// a state with a direct-use message. The defining assignment itself
	// re-derives, so skip LHS positions.
	lhs := map[ast.Node]bool{}
	if as, ok := n.stmt.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			lhs[l] = true
		}
	}
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			if lhs[x] {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				return true
			}
			if b, ok := in.derived[obj]; ok {
				if rank, live := in.state[b.owner]; live {
					msgs := spec.useInState[spec.states[rank]]
					if msgs.derivedMsg != "" && (!spec.staleOnly || rank > b.rank) {
						report(id.Pos(), msgs.derivedMsg, obj.Name(), b.owner.Name())
					}
				}
			} else if rank, ok := in.state[obj]; ok {
				msgs := spec.useInState[spec.states[rank]]
				if msgs.directMsg != "" && !isEventReceiver(spec, n, id) {
					report(id.Pos(), msgs.directMsg, obj.Name())
				}
			}
			return true
		})
	}

	// Events fired in states that forbid them.
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i := range spec.events {
				ev := &spec.events[i]
				if len(ev.badIn) == 0 {
					continue
				}
				recv, ok := methodCallOn(call, ev.method)
				if !ok {
					continue
				}
				obj := identObj(info, recv)
				if obj == nil {
					continue
				}
				rank, tracked := in.state[obj]
				if !tracked {
					continue
				}
				if msg := ev.badIn[spec.states[rank]]; msg != "" {
					report(call.Pos(), msg, obj.Name())
				}
			}
			return true
		})
	}

	// Escape while a worsening event is still reachable: a derived value
	// stored to a field, a package-level variable, or sent on a channel
	// outlives the buffers the event invalidates.
	if spec.escapeMsg == "" {
		return
	}
	escape := func(stored ast.Expr, pos token.Pos, how string) {
		obj := storedDerivedObj(info, stored, in)
		if obj == nil {
			return
		}
		owner := in.derived[obj].owner
		if eventReachable(p, sums, spec, cfg, n, owner) {
			report(pos, spec.escapeMsg, obj.Name(), owner.Name(), how)
		}
	}
	switch st := n.stmt.(type) {
	case *ast.AssignStmt:
		for i, l := range st.Lhs {
			ri := i
			if len(st.Rhs) == 1 {
				ri = 0
			}
			if _, ok := l.(*ast.SelectorExpr); ok {
				escape(st.Rhs[ri], st.Pos(), "a struct field")
				continue
			}
			if obj := identObj(info, l); obj != nil {
				if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					escape(st.Rhs[ri], st.Pos(), "a package-level variable")
				}
			}
		}
	case *ast.SendStmt:
		escape(st.Value, st.Pos(), "a channel send")
	}
}

// isEventReceiver reports whether id is the receiver of one of the node's
// own protocol-event calls (a legitimate use of the value).
func isEventReceiver(spec *typestateSpec, n *cfgNode, id *ast.Ident) bool {
	found := false
	for _, root := range headerNodes(n) {
		shallowInspect(root, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			for i := range spec.events {
				if recv, ok := methodCallOn(call, spec.events[i].method); ok && recv == id {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}

// storedDerivedObj unwraps the stored expression to a plain derived
// identifier (through parens and unary &).
func storedDerivedObj(info *types.Info, e ast.Expr, f *protoFact) types.Object {
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
	obj := identObj(info, e)
	if obj == nil {
		return nil
	}
	if _, ok := f.derived[obj]; !ok {
		return nil
	}
	return obj
}

// eventReachable reports whether the spec's escape event can fire on owner
// after node n: a direct method call (or delegation) on a downstream node,
// or the deferred form of either anywhere (defers run at function exit,
// which is always downstream).
func eventReachable(p *Pass, sums *summarySet, spec *typestateSpec, cfg *funcCFG, n *cfgNode, owner types.Object) bool {
	info := p.Pkg.Info
	ev := spec.eventByMethod(spec.escapeEvent)
	if ev == nil {
		return false
	}
	isEvent := func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		if recv, ok := methodCallOn(call, ev.method); ok && identObj(info, recv) == owner {
			return true
		}
		return ev.delegable && sums.delegated(call, owner).Discharges
	}
	if deferredAnywhere(cfg, isEvent) {
		return true
	}
	for m := range cfg.reachableFrom(n) {
		if m.stmt == nil {
			continue
		}
		if headerContains(m, isEvent) {
			return true
		}
	}
	return false
}

// deferredAnywhere reports whether any defer statement of the function
// contains a node satisfying isEvent (closure bodies included): defers run
// at function exit, which is downstream of every node.
func deferredAnywhere(cfg *funcCFG, isEvent func(ast.Node) bool) bool {
	for _, m := range cfg.nodes {
		ds, ok := m.stmt.(*ast.DeferStmt)
		if !ok {
			continue
		}
		deferred := false
		ast.Inspect(ds.Call, func(x ast.Node) bool {
			if isEvent(x) {
				deferred = true
			}
			return !deferred
		})
		if deferred {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// WaitGroup protocol helpers (goroutinejoin's Add→Done/Wait leg)
// ---------------------------------------------------------------------------

// wgJoinProtocol declares the WaitGroup leg of goroutinejoin as engine
// events: Add must precede the launch, and Wait must join every path from
// the launch to exit (the goroutine's Done is how goroutinejoin classifies
// the launch in the first place).
var wgJoinProtocol = struct {
	add, wait eventSpec
}{
	add:  eventSpec{method: "Add"},
	wait: eventSpec{method: waitGroupProtocol.terminal, delegable: true},
}

// eventPrecedes reports whether an ev-method call on obj appears before pos
// in body. resolve maps the receiver expression to an object (identObj for
// locals, fieldObj-style resolvers for field receivers).
func eventPrecedes(body ast.Node, ev eventSpec, obj types.Object, pos token.Pos, resolve func(ast.Expr) types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, ok := methodCallOn(call, ev.method)
		if ok && resolve(recv) == obj && call.Pos() < pos {
			found = true
		}
		return !found
	})
	return found
}

// eventJoins reports whether an ev-method call on obj runs on every path
// from the launch node to exit (or is deferred anywhere in the function). A
// call handing obj to a local function whose summary discharges it counts
// too when the event is delegable.
func eventJoins(info *types.Info, sums *summarySet, cfg *funcCFG, launch *cfgNode, ev eventSpec, obj types.Object) bool {
	isEvent := func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return false
		}
		if recv, ok := methodCallOn(call, ev.method); ok && identObj(info, recv) == obj {
			return true
		}
		return ev.delegable && sums.delegated(call, obj).Discharges
	}
	if deferredAnywhere(cfg, isEvent) {
		return true
	}
	return cfg.mustPassFrom(launch, func(n *cfgNode) bool {
		return headerContains(n, isEvent)
	})
}
