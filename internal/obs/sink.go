package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Event is one finished span as handed to a Sink. Start is relative to the
// tracer's base time.
type Event struct {
	ID     uint64
	Parent uint64
	Track  int
	Name   string
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Sink receives finished spans. The tracer serializes Emit calls under its
// own mutex, so sinks need no locking of their own.
type Sink interface {
	Emit(Event)
	Close() error
}

// attrMap flattens attributes for JSON output.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Val
	}
	return m
}

// chromeEvent is one Chrome trace-event ("X" = complete event). Timestamps
// and durations are in microseconds, per the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTraceSink streams spans in Chrome trace-event JSON
// (`{"traceEvents":[...]}`), loadable in chrome://tracing or
// ui.perfetto.dev. Each obs track becomes one tid.
type ChromeTraceSink struct {
	w   io.Writer
	c   io.Closer
	n   int
	err error
}

// NewChromeTraceSink wraps w, writing the opening of the JSON envelope
// immediately. If w is also an io.Closer, Close closes it.
func NewChromeTraceSink(w io.Writer) *ChromeTraceSink {
	s := &ChromeTraceSink{w: w}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	_, s.err = io.WriteString(w, `{"traceEvents":[`)
	return s
}

// Emit appends one complete event.
func (s *ChromeTraceSink) Emit(e Event) {
	if s.err != nil {
		return
	}
	b, err := json.Marshal(chromeEvent{
		Name: e.Name,
		Ph:   "X",
		PID:  1,
		TID:  e.Track + 1,
		Ts:   float64(e.Start.Nanoseconds()) / 1e3,
		Dur:  float64(e.Dur.Nanoseconds()) / 1e3,
		Args: attrMap(e.Attrs),
	})
	if err != nil {
		s.err = err
		return
	}
	if s.n > 0 {
		if _, s.err = io.WriteString(s.w, ","); s.err != nil {
			return
		}
	}
	s.n++
	_, s.err = s.w.Write(b)
}

// Close terminates the JSON envelope and closes the underlying writer if
// it is closable.
func (s *ChromeTraceSink) Close() error {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, `],"displayTimeUnit":"ms"}`)
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	if s.err != nil {
		return fmt.Errorf("obs: chrome trace sink: %w", s.err)
	}
	return nil
}
