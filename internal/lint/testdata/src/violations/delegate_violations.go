package violations

import (
	"nautilus/internal/obs"
)

// Delegated obligations: helpers that discharge (or fail to discharge) a
// lifetime obligation on behalf of their caller. Before the summary layer
// every call argument counted as an ownership-transferring escape, so the
// clean cases below were clean by accident and the leaky cases were
// invisible false negatives.

// endSpanFor discharges the End obligation for its caller.
func endSpanFor(sp *obs.Span) {
	sp.End()
}

// noteSpan inspects the span but neither ends it nor keeps it — the
// obligation stays with the caller.
func noteSpan(sp *obs.Span) bool {
	return sp != nil
}

// Clean: the missed branch delegates End to a helper whose summary proves
// it ends the span on every path.

func spanDelegatedClean(tr *obs.Tracer, fail bool) bool {
	sp := tr.Start("work")
	if fail {
		endSpanFor(sp)
		return false
	}
	sp.End()
	return true
}

// Spanleak: the helper provably keeps the span local without ending it,
// so passing it no longer launders the leak as an escape.

func spanDelegatedLeaky(tr *obs.Tracer, fail bool) bool {
	sp := tr.Start("work") // want "spanleak: span sp is not ended on every path to return; add defer sp.End() or end it on the missed branch"
	if fail {
		return noteSpan(sp)
	}
	sp.End()
	return true
}

// resetCounter can never fail; its error result exists to satisfy an
// interface shape.
func resetCounter() error {
	return nil
}

// Clean: dropping a provably-nil error is not a finding.

func dropInfallibleError() {
	resetCounter()
}
