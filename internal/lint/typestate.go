package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the declarative typestate protocol engine. A resource
// protocol — span Start→End, scope New→Release — is declared as a
// typestateSpec (a small state machine plus message templates) and the
// engine supplies the analysis machinery:
//
//   - an obligation leg (spanleak's shape): every tracked origin must reach
//     its terminal event on all paths to exit, unless a defer discharges it
//     or it escapes to a new owner; plus a re-binding check (overwriting the
//     only handle before the terminal leaks the old value) and a
//     defer-in-loop check (a deferred terminal inside the origin's own loop
//     runs at function exit, not per iteration);
//
//   - a simulation leg (arenaescape's shape): a forward may-analysis over
//     the CFG tracking each value's protocol state and the values derived
//     from it, reporting uses in bad states and derived values escaping
//     while a worsening event is still reachable.
//
// Both legs interface with the interprocedural summary layer: events fire
// through delegation to local helpers (summarySet.delegated /
// dischargesAt / deferredDischarge), and escapes hand the obligation to the
// new owner (objEscapes).
//
// The engine holds exactly what its three users need: spanleak (obligation
// leg), arenaescape (simulation leg) and goroutinejoin's WaitGroup leg (the
// helpers at the end of the file).

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
}

// typestateSpec declares one protocol. Zero-valued sections disable the
// corresponding leg: a spec with no leakMsg has no exit obligation, a spec
// with no states has no state simulation.
type typestateSpec struct {
	// origin matches calls that create a tracked value, bound by a plain
	// `v := origin(...)` assignment.
	origin func(p *Pass, call *ast.CallExpr) bool
	// originLabel renders the origin for the unbound message.
	originLabel func(call *ast.CallExpr) string
	// valueType recognizes the tracked value's type, to seed parameters.
	valueType func(t types.Type) bool

	// unboundMsg flags an origin call used as a bare statement (the handle
	// is dropped and can never be discharged); args (originLabel).
	unboundMsg string

	// Obligation leg.
	protocol     *protocol // protocol-table row naming the discharging terminal
	leakMsg      string    // args (value, value)
	overwriteMsg string    // non-"": check mid-protocol re-binding; args (value)
	deferLoopMsg string    // non-"": check defer-in-loop; args (value)

	// Simulation leg. states are ordered best→worst; path merge keeps the
	// worst (may-analysis: "may already be released").
	states     []string
	start      string // state of a freshly bound origin
	paramStart string // non-"": seed valueType parameters in this state
	events     []eventSpec
	derived    func(t types.Type) bool // types carrying derived values
	useInState map[string]useMsgs
	// escapeEvent/escapeMsg flag derived values stored to fields, globals,
	// or channels while the named event is still reachable downstream;
	// args (value, owner, how).
	escapeEvent string
	escapeMsg   string
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

// tsOrigin is one tracked binding `v := origin(...)`.
type tsOrigin struct {
	obj  types.Object
	node *cfgNode
	call *ast.CallExpr
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

	terminal := spec.protocol.terminal
	for _, o := range origins {
		o := o
		// dischargesNode reports whether node n discharges this origin: the
		// terminal on the value itself, or a delegation the summary layer
		// credits.
		dischargesNode := func(n *cfgNode) bool {
			return headerContains(n, func(x ast.Node) bool {
				call, ok := x.(*ast.CallExpr)
				return ok && sums.dischargesAt(call, o.obj, terminal)
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
		if !cfg.mustPassFrom(o.node, dischargesNode) {
			p.Reportf(o.call.Pos(), spec.leakMsg, o.obj.Name(), o.obj.Name())
		}
	}
}

// collectOrigins finds the tracked bindings: each single-valued
// `v := origin(...)` assignment.
func collectOrigins(p *Pass, spec *typestateSpec, cfg *funcCFG) []tsOrigin {
	info := p.Pkg.Info
	var origins []tsOrigin
	for _, n := range cfg.nodes {
		as, ok := n.stmt.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			continue
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !spec.origin(p, call) {
			continue
		}
		obj := identObj(info, as.Lhs[0])
		if obj == nil || obj.Name() == "_" {
			continue
		}
		origins = append(origins, tsOrigin{obj: obj, node: n, call: call})
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
			for _, obj := range defSites(info, n) {
				if obj == o.obj {
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

// defSites lists the variables a CFG node defines, in evaluation order.
func defSites(info *types.Info, n *cfgNode) []types.Object {
	var out []types.Object
	add := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := info.ObjectOf(id); obj != nil {
			out = append(out, obj)
		}
	}
	switch st := n.stmt.(type) {
	case *ast.AssignStmt:
		for _, l := range st.Lhs {
			add(l)
		}
	case *ast.IncDecStmt:
		add(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						add(name)
					}
				}
			}
		}
	case *ast.RangeStmt:
		add(st.Key)
		add(st.Value)
	}
	return out
}

// ---------------------------------------------------------------------------
// Simulation leg
// ---------------------------------------------------------------------------

// protoFact is one CFG node's entry state: tracked owners' state ranks and
// the values derived from them (derived value → owner).
type protoFact struct {
	state   map[types.Object]int
	derived map[types.Object]types.Object
}

func newProtoFact() *protoFact {
	return &protoFact{state: map[types.Object]int{}, derived: map[types.Object]types.Object{}}
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
				if ev.to == "" {
					continue
				}
				if recv, ok := methodCallOn(call, ev.method); ok {
					if obj := identObj(info, recv); obj != nil {
						if _, tracked := f.state[obj]; tracked {
							f.state[obj] = spec.rank(ev.to)
						}
					}
				}
				if !ev.delegable {
					continue
				}
				for obj := range f.state {
					if sums.delegated(call, obj).Discharges {
						f.state[obj] = spec.rank(ev.to)
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
	rhsDerived := make([]types.Object, len(as.Rhs))
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
		case rhsOrigin[ri] && len(as.Rhs) == len(as.Lhs):
			f.state[obj] = startRank
		case rhsDerived[ri] != nil && spec.derived != nil && spec.derived(obj.Type()):
			f.derived[obj] = rhsDerived[ri]
		}
	}
}

// derivedOf returns the owner expression e derives from, or nil: e mentions
// a tracked owner or an already-derived value (skipping nested function
// literals).
func derivedOf(info *types.Info, e ast.Expr, f *protoFact) types.Object {
	var owner types.Object
	shallowInspect(e, func(n ast.Node) bool {
		if owner != nil {
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
		if _, ok := f.state[obj]; ok {
			owner = obj
		} else if o, ok := f.derived[obj]; ok {
			owner = o
		}
		return owner == nil
	})
	return owner
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
	// have worsened, or of an owner in a state with a direct-use message.
	// The defining assignment itself re-derives, so skip LHS positions.
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
			if owner, ok := in.derived[obj]; ok {
				if rank, live := in.state[owner]; live {
					if msg := spec.useInState[spec.states[rank]].derivedMsg; msg != "" {
						report(id.Pos(), msg, obj.Name(), owner.Name())
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
		owner := in.derived[obj]
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
