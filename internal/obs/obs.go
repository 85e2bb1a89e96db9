// Package obs is Nautilus's observability layer: hierarchical spans over
// the planner/materializer/trainer pipeline, a typed metrics registry
// (counters, gauges, histograms), and a cost-model conformance report that
// records the optimizer's predicted compute FLOPs / load bytes / peak
// memory per fused group next to what the executor metered (records,
// seconds, and the live-tensor peak the graph tape meters under the
// liveness table the estimate replays) — the measured-vs-modeled accounting that
// keeps the Section 4.1 cost model honest (the paper's Figure 11
// utilization story). Tracer.Report is the one reader of all three.
//
// Every entry point is nil-receiver safe: a nil *Tracer (and every handle
// derived from one) makes all span, registry, and conformance operations
// no-ops, so instrumented code pays only a nil check when observability is
// off. The benchmark in this package pins that fast path.
//
// obs imports no other nautilus package, so any layer (storage, graph,
// exec, opt, core) can depend on it without cycles.
package obs

import (
	"sync"
	"time"
)

// now is the package's single sanctioned wall-clock read. All span
// timestamps funnel through here; everything downstream works on
// durations relative to the tracer's base time.
func now() time.Time {
	return time.Now()
}

// Tracer is the root observability handle: it issues spans, owns the
// metrics registry and the conformance report, and forwards finished spans
// to its sink. A nil Tracer disables everything.
type Tracer struct {
	sink    Sink
	reg     *Registry
	conf    *Conformance
	samples *SampleLog
	base    time.Time

	mu     sync.Mutex
	nextID uint64
	// childTime accumulates, per *open* span, the total duration of its
	// ended children — the bookkeeping behind exclusive (self) time.
	childTime map[uint64]time.Duration
	// open tracks every span not yet ended, keyed by id, so a Report can
	// show the in-flight span tree.
	open  map[uint64]*Span
	stats map[string]*SpanStat
}

// New creates a Tracer emitting finished spans to sink. sink may be nil:
// span stats, the registry, and conformance still accumulate, nothing is
// emitted.
func New(sink Sink) *Tracer {
	return &Tracer{
		sink:      sink,
		reg:       NewRegistry(),
		conf:      NewConformance(),
		samples:   &SampleLog{},
		base:      now(),
		childTime: map[uint64]time.Duration{},
		open:      map[uint64]*Span{},
		stats:     map[string]*SpanStat{},
	}
}

// Enabled reports whether the tracer is live (non-nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the tracer's metrics registry (nil for a nil tracer;
// all registry operations are nil-safe in turn).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Conformance returns the tracer's cost-model conformance report (nil for
// a nil tracer).
func (t *Tracer) Conformance() *Conformance {
	if t == nil {
		return nil
	}
	return t.conf
}

// Samples returns the tracer's throughput-sample log (nil for a nil
// tracer; all SampleLog operations are nil-safe in turn).
func (t *Tracer) Samples() *SampleLog {
	if t == nil {
		return nil
	}
	return t.samples
}

// OpenSpan is one still-running span in a Report. StartNs is relative to
// the tracer's base time; ElapsedNs is how long the span has been open at
// report time.
type OpenSpan struct {
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	Track     int    `json:"track,omitempty"`
	Name      string `json:"name"`
	StartNs   int64  `json:"start_ns"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

// Close flushes and closes the sink, if any.
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}

// Start opens a root span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(nil, name, attrs)
}

// newSpan opens a span under parent (nil: a root), on the parent's track.
func (t *Tracer) newSpan(parent *Span, name string, attrs []Attr) *Span {
	s := &Span{t: t, name: name, start: now().Sub(t.base), attrs: attrs}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	if parent != nil {
		s.parent, s.track = parent.id, parent.track
	}
	t.childTime[s.id] = 0
	t.open[s.id] = s
	t.mu.Unlock()
	return s
}

// Span is one timed region of execution. Spans form a tree via Child; End
// computes the duration, charges it to the parent's child-time (for
// exclusive-time accounting), and emits the span to the sink. All methods
// are nil-receiver safe.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	track  int // guarded by t.mu: a Report reads it while the span is open
	name   string
	start  time.Duration // since tracer base
	attrs  []Attr

	ended bool // guarded by t.mu
	dur   time.Duration
}

// Child opens a sub-span. Children may End after their parent; such tail
// time simply stops counting against the parent's exclusive time.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(s, name, attrs)
}

// SetTrack moves the span (and, by inheritance, its children) onto a
// separate display track — e.g. the prefetch pipeline next to the main
// training loop. Returns s for chaining.
func (s *Span) SetTrack(track int) *Span {
	if s != nil {
		s.t.mu.Lock()
		s.track = track
		s.t.mu.Unlock()
	}
	return s
}

// Track returns the span's display track (0 for a nil span).
func (s *Span) Track() int {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.track
}

// Attr appends attributes to the span; call before End.
func (s *Span) Attr(attrs ...Attr) {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
}

// End closes the span, updates the tracer's per-name statistics, and emits
// it to the sink. Idempotent; returns the span's duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	t := s.t
	end := now().Sub(t.base)
	t.mu.Lock()
	if s.ended {
		d := s.dur
		t.mu.Unlock()
		return d
	}
	s.ended = true
	s.dur = end - s.start
	child := t.childTime[s.id]
	delete(t.childTime, s.id)
	delete(t.open, s.id)
	excl := s.dur - child
	if excl < 0 {
		excl = 0
	}
	// Charge this span's time to the parent only while the parent is still
	// open (a prefetch child can outlive the batch that consumed it).
	if _, open := t.childTime[s.parent]; open && s.parent != 0 {
		t.childTime[s.parent] += s.dur
	}
	st := t.stats[s.name]
	if st == nil {
		st = &SpanStat{Name: s.name}
		t.stats[s.name] = st
	}
	st.Count++
	st.Total += s.dur
	st.Exclusive += excl
	if s.dur > st.Max {
		st.Max = s.dur
	}
	if t.sink != nil {
		t.sink.Emit(Event{
			ID:     s.id,
			Parent: s.parent,
			Track:  s.track,
			Name:   s.name,
			Start:  s.start,
			Dur:    s.dur,
			Attrs:  s.attrs,
		})
	}
	t.mu.Unlock()
	return s.dur
}

// Attr is one span attribute. Val holds a JSON-marshalable scalar.
type Attr struct {
	Key string
	Val any
}

// Str builds a string attribute.
func Str(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: v} }
