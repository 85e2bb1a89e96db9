package violations

import (
	"errors"

	"nautilus/internal/obs"
)

// errTruncated stands in for an encoder failure in these fixtures.
var errTruncated = errors.New("truncated snapshot")

// Fixtures shaped like the live-telemetry exporter's periodic snapshot:
// a span around each snapshot, missed on the encoder's error path.

type leakyExporter struct {
	tr      *obs.Tracer
	written int
}

// Spanleak: the per-snapshot span misses End when the encoder fails.

func (e *leakyExporter) snapshotLeaky(fail bool) error {
	sp := e.tr.Start("export/snapshot") // want "spanleak: span sp is not ended on every path to return; add defer sp.End() or end it on the missed branch"
	if fail {
		return errTruncated
	}
	e.written++
	sp.End()
	return nil
}

// Suppressed: a deliberately leaked snapshot span, annotated in place.

func (e *leakyExporter) snapshotSuppressed(fail bool) error {
	//lint:ignore spanleak fixture demonstrating a suppressed exporter snapshot leak
	sp := e.tr.Start("export/snapshot")
	if fail {
		return errTruncated
	}
	e.written++
	sp.End()
	return nil
}
