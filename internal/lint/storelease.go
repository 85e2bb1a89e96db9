package lint

import "go/types"

const storagePkgPath = "nautilus/internal/storage"

// StoreLeaseAnalyzer checks the lifecycle of storage.TensorStore handles.
// A store owns an on-disk directory of record files plus an in-memory
// index and optional row cache; Close releases the lot. Three hazards:
//
//   - leak: a store opened with NewTensorStore that does not reach Close on
//     every path to return keeps its directory handle and cache alive for
//     the life of the process — fatal in the multi-tenant service, where
//     stores open and close per session;
//   - use after Close: append/read calls on a closed store;
//   - stale rows: GC and Delete drop record files; tensors read *before*
//     the sweep reference storage that may no longer exist, so using (or
//     storing away) such rows after a GC/Delete on their store is a stale
//     read. Rows read after the sweep are fine — staleness is judged
//     against the store's state at the read, not its final state.
//
// Declared against the typestate engine as open→swept→closed with the full
// obligation leg: a Close on a pure copy discharges (`var st2 = st;
// st2.Close()` counts; reachdefs.go decides "pure"), error-guarded returns
// are exempt (`if err != nil { return err }` after a failed open owes
// nothing — but only when the guard reads the origin's own err binding),
// re-binding before Close is flagged, and a
// deferred Close inside the opening loop is flagged (it runs at function
// exit, not per iteration). A store that escapes — returned, stored in a
// struct, handed to a goroutine — transfers the obligation to its new
// owner, and a helper taking a *TensorStore parameter that closes it on
// every path (the Discharges summary fact) discharges the caller's
// obligation through the call. Test files are skipped.
var StoreLeaseAnalyzer = &Analyzer{
	Name:         "storelease",
	Doc:          "flags TensorStores not closed on every exit path, uses after Close, and rows read before a GC/Delete but used after it",
	SummaryAware: true,
	Run:          func(p *Pass) { runTypestate(p, storeLeaseSpec) },
}

var storeLeaseSpec = &typestateSpec{
	origin:    constructorOrigin("NewTensorStore", storagePkgPath, storeProtocol.typeName),
	errResult: true,
	valueType: storeProtocol.carries,

	protocol:      storeProtocol,
	leakMsg:       "store %s is not closed on every path to return; add defer %s.Close() or close it on the missed branch",
	overwriteMsg:  "store %s is re-bound before being closed; the earlier store's directory handle and cache leak — close it before re-binding",
	deferLoopMsg:  "store %s is opened in a loop but its deferred Close runs at function exit, not per iteration; close it at the end of the iteration",
	copyDischarge: true,

	states:     []string{"open", "swept", "closed"},
	start:      "open",
	paramStart: "open",
	events: []eventSpec{
		{method: "GC", to: "swept"},
		{method: "Delete", to: "swept"},
		{method: storeProtocol.terminal, delegable: true, to: "closed"},
	},
	derived: func(t types.Type) bool { return namedType(t, tensorPkgPath, "Tensor") },
	useInState: map[string]useMsgs{
		"closed": {directMsg: "store %s may already be closed here; move the use before Close"},
		"swept":  {derivedMsg: "%s was read from store %s before a GC/Delete that may have dropped its rows; re-read it after the sweep or copy it out first"},
	},
	staleOnly:   true,
	escapeEvent: "GC",
	escapeMsg:   "%s was read from store %s but escapes via %s, and the store is swept before the function returns; copy it out first",
}
