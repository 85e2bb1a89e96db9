package obs

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"
)

// SpanStat aggregates every span of one name: count, total (inclusive)
// time, exclusive time (total minus time spent in child spans), and the
// longest single occurrence.
type SpanStat struct {
	Name      string        `json:"name"`
	Count     int64         `json:"count"`
	Total     time.Duration `json:"total_ns"`
	Exclusive time.Duration `json:"exclusive_ns"`
	Max       time.Duration `json:"max_ns"`
}

// Report is the telemetry document: everything a tracer knows at one
// instant. -metrics writes it once at exit, -live appends it per interval,
// /metrics serves it, WriteSummary renders it; there is no other reader of
// tracer state. AtNs is relative to the tracer's base time; Spans is sorted
// by exclusive time descending, OpenSpans by id (creation order).
type Report struct {
	AtNs        int64         `json:"at_ns"`
	Metrics     *Snapshot     `json:"metrics"`
	Conformance []GroupReport `json:"conformance"`
	Spans       []SpanStat    `json:"spans"`
	OpenSpans   []OpenSpan    `json:"open_spans"`
}

// Report captures the tracer's current state (nil tracer → nil). Ended and
// open spans are read under one lock, so a span is in exactly one of them.
func (t *Tracer) Report() *Report {
	if t == nil {
		return nil
	}
	at := now().Sub(t.base)
	r := &Report{AtNs: at.Nanoseconds(), Metrics: t.reg.Snapshot(), Conformance: t.conf.Report()}
	t.mu.Lock()
	r.Spans = make([]SpanStat, 0, len(t.stats))
	for _, st := range t.stats {
		r.Spans = append(r.Spans, *st)
	}
	r.OpenSpans = make([]OpenSpan, 0, len(t.open))
	for _, s := range t.open {
		r.OpenSpans = append(r.OpenSpans, OpenSpan{
			ID:        s.id,
			Parent:    s.parent,
			Track:     s.track,
			Name:      s.name,
			StartNs:   s.start.Nanoseconds(),
			ElapsedNs: (at - s.start).Nanoseconds(),
		})
	}
	t.mu.Unlock()
	sort.Slice(r.Spans, func(i, j int) bool {
		if r.Spans[i].Exclusive != r.Spans[j].Exclusive {
			return r.Spans[i].Exclusive > r.Spans[j].Exclusive
		}
		return r.Spans[i].Name < r.Spans[j].Name
	})
	sort.Slice(r.OpenSpans, func(i, j int) bool { return r.OpenSpans[i].ID < r.OpenSpans[j].ID })
	return r
}

// errWriter accumulates the first write error so report rendering can
// check once at the end instead of after every line.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// WriteSummary renders a Report for people: the top spans by exclusive
// time, the histograms, then the cost-model conformance table.
func WriteSummary(w io.Writer, r *Report, topN int) error {
	if r == nil {
		return nil
	}
	if stats := r.Spans; len(stats) > 0 {
		var grand time.Duration
		for _, st := range stats {
			grand += st.Exclusive
		}
		if topN > 0 && len(stats) > topN {
			stats = stats[:topN]
		}
		ew := &errWriter{w: w}
		ew.printf("-- top spans by exclusive time --\n")
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		tew := &errWriter{w: tw}
		tew.printf("span\tcount\ttotal\texclusive\texcl%%\tmax\n")
		for _, st := range stats {
			pct := 0.0
			if grand > 0 {
				pct = 100 * float64(st.Exclusive) / float64(grand)
			}
			tew.printf("%s\t%d\t%v\t%v\t%.1f%%\t%v\n",
				st.Name, st.Count, st.Total.Round(time.Microsecond),
				st.Exclusive.Round(time.Microsecond), pct, st.Max.Round(time.Microsecond))
		}
		for _, err := range []error{ew.err, tew.err, tw.Flush()} {
			if err != nil {
				return err
			}
		}
	}
	if err := writeHistograms(w, r.Metrics); err != nil {
		return err
	}
	return writeConformance(w, r.Conformance)
}

// writeHistograms prints every registry histogram with its count, mean,
// and bucket-interpolated p50/p95/p99 estimates.
func writeHistograms(w io.Writer, s *Snapshot) error {
	if s == nil || len(s.Histograms) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	ew := &errWriter{w: w}
	ew.printf("-- histograms --\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	tew := &errWriter{w: tw}
	tew.printf("histogram\tcount\tmean\tp50\tp95\tp99\n")
	for _, name := range names {
		h := s.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		tew.printf("%s\t%d\t%.3g\t%.3g\t%.3g\t%.3g\n", name, h.Count, mean, h.P50, h.P95, h.P99)
	}
	for _, err := range []error{ew.err, tew.err, tw.Flush()} {
		if err != nil {
			return err
		}
	}
	return nil
}

// writeConformance prints the predicted-vs-metered comparison, one block
// per fused group: the plan's totals over the metered record counts, in
// seconds at the planner's rates against metered wall time (ratio 0 while
// rates or time are absent), and the live-tensor peak against its bound.
func writeConformance(w io.Writer, reports []GroupReport) error {
	if len(reports) == 0 {
		return nil
	}
	ew := &errWriter{w: w}
	ew.printf("-- cost-model conformance (predicted vs metered) --\n")
	for _, r := range reports {
		warn := ""
		if r.DriftWarn {
			warn = "  DRIFT WARNING: calibrate the hardware profile (see -calibrate-out)"
		}
		ew.printf("group %s (%d train + %d valid records)%s\n", r.Group, r.TrainRecords, r.ValidRecords, warn)
		ew.printf("  compute      predicted %d FLOPs = %.3fs  metered %.3fs (x%.2f)\n",
			r.PredictedComputeFLOPs, r.PredictedComputeSec, r.ActualComputeSec, r.ComputeDrift)
		ew.printf("  load         predicted %d bytes = %.3fs  metered %.3fs (x%.2f)\n",
			r.PredictedLoadBytes, r.PredictedLoadSec, r.ActualLoadSec, r.LoadDrift)
		ew.printf("  peak memory  bound %d  metered %d (%.1f%% of bound)\n",
			r.PredictedPeakMemoryBytes, r.ActualPeakMemoryBytes, r.MemoryUsePct)
	}
	return ew.err
}
