package lint

import (
	"go/ast"
	"go/types"
)

// ArenaEscapeAnalyzer tracks tensors allocated under a step-scoped
// tensor.Scope and flags lifetimes that outlive the scope. Scope.Release
// recycles every buffer wholesale, so a scoped tensor that is still
// reachable afterwards is silent data corruption — the next batch
// overwrites its storage in place.
//
// The protocol (live→released, with tensor values derived from the scope)
// is declared as a typestateSpec; the engine's simulation leg supplies the
// forward may-analysis:
//
//   - origins are `s := arena.Scope()` results (and *tensor.Scope
//     parameters);
//   - a value becomes scope-derived when it is assigned from an expression
//     that mentions the scope or an already-derived value (calls with the
//     scope as allocator, method calls and field reads on derived values,
//     composites) and its type can carry tensors;
//   - `s.Release()` marks the scope released on the paths through it;
//     `s.Recycle()` invalidates every value derived from s so far while s
//     itself stays live for the next batch; assignment to a tracked
//     variable kills its association.
//
// Three finding classes:
//
//   - use after Release: any use of a derived value (or the scope itself)
//     on a path where its scope may already be released;
//   - use after Recycle: any use of a value derived from a scope before a
//     Recycle that may have run on the path since;
//   - escape before Release: a derived value stored into a struct field, a
//     package-level variable, or sent on a channel, while a Release of its
//     scope is still reachable downstream — the stored alias outlives the
//     buffers. Handing a scope off through a channel without releasing it
//     locally (the prefetch-pipeline pattern, where the consumer releases)
//     is deliberately clean.
//
// Test files are skipped.
//
// Interprocedurally, a call handing a tracked scope to a package-local
// helper whose summary releases that parameter on every path counts as
// the Release — both in the release-state transfer (so uses after the
// helper call are flagged) and in the escape check's "Release still
// reachable" test (so helper-mediated cleanup stops being a false
// negative).
var ArenaEscapeAnalyzer = &Analyzer{
	Name:         "arenaescape",
	Doc:          "flags arena-scoped tensors used after Scope.Release or Scope.Recycle, or escaping to fields/globals/channels that outlive the scope",
	SummaryAware: true,
	Run:          func(p *Pass) { runTypestate(p, arenaEscapeSpec) },
}

// arenaEscapeSpec declares the scope lifecycle. No obligation leg: a scope
// that is never released is wasteful but not corrupting — the hazards are
// uses and escapes past Release, which the simulation leg reports.
var arenaEscapeSpec = &typestateSpec{
	origin:     scopeOrigin,
	valueType:  scopeProtocol.carries,
	states:     []string{"live", "released"},
	start:      "live",
	paramStart: "live",
	events:     []eventSpec{{method: scopeProtocol.terminal, delegable: true, to: "released"}},
	derived:    typeCarriesTensors,
	useInState: map[string]useMsgs{
		"released": {
			derivedMsg: "%s is backed by scope %s, which may already be released here; move the use before Release or copy the tensor out",
			directMsg:  "scope %s may already be released here",
		},
	},
	escapeEvent:  scopeProtocol.terminal,
	escapeMsg:    "%s is backed by scope %s but escapes via %s, and the scope is released before the function returns; copy it out of the scope first",
	recycleEvent: "Recycle",
	recycleMsg:   "%s was allocated from scope %s before a Recycle that may have run on the way here; move the use before Recycle or copy the tensor out",
}

// scopeOrigin matches a call returning *tensor.Scope from a method named
// Scope (i.e. (*tensor.Arena).Scope()).
func scopeOrigin(p *Pass, call *ast.CallExpr) bool {
	if _, ok := methodCallOn(call, "Scope"); !ok {
		return false
	}
	return namedType(p.Pkg.Info.TypeOf(call), tensorPkgPath, "Scope")
}

// typeCarriesTensors reports whether a value of type t can hold (directly
// or through pointers, slices, arrays, maps, channels, or struct fields) a
// tensor.Tensor or tensor.Scope — the types worth tracking through a scope.
func typeCarriesTensors(t types.Type) bool {
	return carriesTensors(t, map[types.Type]bool{}, 0)
}

func carriesTensors(t types.Type, seen map[types.Type]bool, depth int) bool {
	if t == nil || depth > 8 || seen[t] {
		return false
	}
	seen[t] = true
	if namedType(t, tensorPkgPath, "Tensor") || namedType(t, tensorPkgPath, "Scope") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Slice:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Array:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Map:
		return carriesTensors(u.Key(), seen, depth+1) || carriesTensors(u.Elem(), seen, depth+1)
	case *types.Chan:
		return carriesTensors(u.Elem(), seen, depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesTensors(u.Field(i).Type(), seen, depth+1) {
				return true
			}
		}
	case *types.Interface:
		// An empty interface can hold anything — layer caches travel as
		// `any`. Interfaces with methods (error, io.Writer, ...) are not
		// tensor carriers in this codebase; tracking them would taint every
		// err returned from a scope-allocating call.
		return u.NumMethods() == 0
	}
	return false
}
