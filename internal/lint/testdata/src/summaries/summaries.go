// Package summaries is the unit-test fixture for the interprocedural
// summary computer: each function pins one summary fact (or its absence).
package summaries

import (
	"errors"

	"nautilus/internal/obs"
)

// endSpan ends its span argument on every path.
func endSpan(sp *obs.Span) { sp.End() }

// endSpanBranch misses the else branch.
func endSpanBranch(sp *obs.Span, ok bool) {
	if ok {
		sp.End()
	}
}

// endSpanDelegated discharges through endSpan.
func endSpanDelegated(sp *obs.Span) { endSpan(sp) }

// endSpanMutualA / endSpanMutualB end the span through mutual recursion —
// the SCC fixpoint must keep the optimistic must-fact.
func endSpanMutualA(sp *obs.Span, n int) {
	if n <= 0 {
		sp.End()
		return
	}
	endSpanMutualB(sp, n-1)
}

func endSpanMutualB(sp *obs.Span, n int) {
	if n <= 0 {
		sp.End()
		return
	}
	endSpanMutualA(sp, n-1)
}

// spanCycleLeaky recurses but escapes at n <= 0 without ending — the
// fixpoint must lower the optimistic seed.
func spanCycleLeaky(sp *obs.Span, n int) {
	if n <= 0 {
		return
	}
	spanCycleLeaky(sp, n-1)
}

// Error-result classification.

func errNil() error { return nil }

func errBoom() error { return errors.New("boom") }

func errMixed(ok bool) error {
	if ok {
		return nil
	}
	return errors.New("bad")
}

// errForward inherits errNil's always-nil classification.
func errForward() error { return errNil() }

// Escape classification.

func keepLocal(sp *obs.Span) bool { return sp == nil }

var spanSink *obs.Span

func stash(sp *obs.Span) { spanSink = sp }
