package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of a traced run. Spans form the tree
// session > cycle > stage; Parent is the index of the enclosing span in the
// recorder (-1 for a session). Start and End are seconds since the recorder
// was created.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Cycle    int     `json:"cycle"`
	Start    float64 `json:"start_s"`
	End      float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory; flush writes them out
// when the benchmark ends. A nil recorder records nothing, so the untraced
// pass runs the same code without the bookkeeping.
type recorder struct {
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: now(), workload: workload}
}

// start opens a span under parent and returns its id (-1 on a nil recorder).
func (r *recorder) start(name string, parent, cycle int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Workload: r.workload, Cycle: cycle, Start: since(r.t0)})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = since(r.t0)
}

// do runs fn inside a span named name under parent.
func (r *recorder) do(name string, parent, cycle int, fn func() error) error {
	id := r.start(name, parent, cycle)
	err := fn()
	r.end(id)
	return err
}

// timed is do that also returns fn's wall time, for callers that account
// time whether or not a recorder is attached.
func (r *recorder) timed(name string, parent, cycle int, fn func() error) (float64, error) {
	var d float64
	err := r.do(name, parent, cycle, func() (err error) {
		d, err = timed(fn)
		return err
	})
	return d, err
}

// selfTimes returns each span's duration minus the part its direct children
// cover, indexed like spans.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// totalsUnder sums span durations by name over the descendants of root
// (root itself excluded).
func totalsUnder(spans []span, root int) map[string]float64 {
	under := make([]bool, len(spans))
	under[root] = true
	out := map[string]float64{}
	// A child is always recorded after its parent, so one forward pass
	// resolves every ancestor chain.
	for i := root + 1; i < len(spans); i++ {
		if p := spans[i].Parent; p >= 0 && under[p] {
			under[i] = true
			out[spans[i].Name] += spans[i].dur()
		}
	}
	return out
}

// unattributedPct is the share of the session's cycle time that no stage
// span covers: Σ cycle self time / Σ cycle duration, in percent.
func unattributedPct(spans []span, session int) float64 {
	self := selfTimes(spans)
	var gap, total float64
	for i, s := range spans {
		if s.Parent == session && s.Name == "cycle" {
			gap += self[i]
			total += s.dur()
		}
	}
	if total <= 0 {
		return 0
	}
	return 100 * gap / total
}

// flush appends the spans to path as JSON lines.
func (r *recorder) flush(path string) error {
	if r == nil || len(r.spans) == 0 {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}
