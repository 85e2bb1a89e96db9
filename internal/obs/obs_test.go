package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// collectSink records emitted events in order.
type collectSink struct {
	events []Event
	closed bool
}

func (s *collectSink) Emit(e Event) { s.events = append(s.events, e) }
func (s *collectSink) Close() error { s.closed = true; return nil }

func TestSpanHierarchy(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	root := tr.Start("root", Str("k", "v"))
	child := root.Child("child", Int("i", 7))
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.Attr(Bool("done", true))
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !sink.closed {
		t.Error("Close did not reach the sink")
	}
	if len(sink.events) != 3 {
		t.Fatalf("emitted %d events, want 3", len(sink.events))
	}
	// Children end (and emit) before parents.
	byName := map[string]Event{}
	for _, e := range sink.events {
		byName[e.Name] = e
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Errorf("child.Parent = %d, want root id %d", byName["child"].Parent, byName["root"].ID)
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Errorf("grand.Parent = %d, want child id %d", byName["grand"].Parent, byName["child"].ID)
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root.Parent = %d, want 0", byName["root"].Parent)
	}
	if got := byName["root"].Attrs; len(got) != 2 || got[0].Key != "k" || got[1].Key != "done" {
		t.Errorf("root attrs = %+v", got)
	}
	for name, e := range byName {
		if e.Dur < 0 {
			t.Errorf("%s has negative duration %v", name, e.Dur)
		}
	}
}

func TestSpanStatsExclusiveTime(t *testing.T) {
	tr := New(nil)
	root := tr.Start("outer")
	c1 := root.Child("inner")
	c1.End()
	c2 := root.Child("inner")
	c2.End()
	root.End()

	stats := map[string]SpanStat{}
	for _, st := range tr.Report().Spans {
		stats[st.Name] = st
	}
	outer, inner := stats["outer"], stats["inner"]
	if inner.Count != 2 || outer.Count != 1 {
		t.Fatalf("counts: outer %d inner %d", outer.Count, inner.Count)
	}
	// Exclusive-time identity: the parent's child-time bookkeeping uses the
	// same clock readings as the children's totals, so it holds exactly.
	if outer.Exclusive != outer.Total-inner.Total {
		t.Errorf("outer exclusive %v != total %v - children %v", outer.Exclusive, outer.Total, inner.Total)
	}
	if inner.Exclusive != inner.Total {
		t.Errorf("leaf exclusive %v != total %v", inner.Exclusive, inner.Total)
	}
	if inner.Max > inner.Total {
		t.Errorf("max %v exceeds total %v", inner.Max, inner.Total)
	}
}

func TestEndIdempotent(t *testing.T) {
	sink := &collectSink{}
	tr := New(sink)
	s := tr.Start("s")
	d1 := s.End()
	d2 := s.End()
	if d1 != d2 {
		t.Errorf("second End returned %v, want the recorded %v", d2, d1)
	}
	if len(sink.events) != 1 {
		t.Errorf("emitted %d events, want 1", len(sink.events))
	}
	// The repeated End must leave the tracer mutex free: Track takes it.
	if got := s.Track(); got != 0 {
		t.Errorf("track after End = %d, want 0", got)
	}
}

// TestChildOutlivesParent pins the prefetch-shaped lifecycle: a child that
// ends after its parent must not corrupt the exclusive-time bookkeeping.
func TestChildOutlivesParent(t *testing.T) {
	tr := New(nil)
	root := tr.Start("root")
	child := root.Child("tail")
	root.End()
	child.End()
	tr.mu.Lock()
	leaked := len(tr.childTime)
	tr.mu.Unlock()
	if leaked != 0 {
		t.Errorf("childTime retains %d entries after all spans ended", leaked)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	s := tr.Start("x", Str("a", "b"))
	if s != nil {
		t.Fatal("nil tracer issued a span")
	}
	c := s.Child("y")
	c.Attr(Int("i", 1))
	c.SetTrack(3)
	if d := c.End(); d != 0 {
		t.Error("nil span End returned nonzero duration")
	}
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
	reg := tr.Registry()
	reg.Counter("c").Add(1)
	reg.Gauge("g").SetMax(5)
	reg.Histogram("h", []int64{1}).Observe(3)
	if reg.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	conf := tr.Conformance()
	g := conf.Group("g")
	g.SetPredicted(CostPrediction{})
	g.AddTrainRecords(1)
	g.ObservePeakMemory(1)
	if conf.Report() != nil {
		t.Error("nil conformance report not nil")
	}
	if tr.Report() != nil {
		t.Error("nil tracer report not nil")
	}
	if err := WriteSummary(&bytes.Buffer{}, tr.Report(), 5); err != nil {
		t.Error(err)
	}
}

func TestChromeTraceSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewChromeTraceSink(&buf))
	root := tr.Start("group", Str("g", "m1"))
	root.Child("batch").End()
	pf := root.Child("prefetch").SetTrack(2)
	pf.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid trace-event JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d trace events, want 3", len(doc.TraceEvents))
	}
	tids := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has ph %q, want X", e.Name, e.Ph)
		}
		if e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %q has negative ts/dur", e.Name)
		}
		tids[e.Name] = e.TID
	}
	if tids["prefetch"] == tids["batch"] {
		t.Errorf("prefetch and batch share tid %d; tracks not mapped", tids["batch"])
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads").Add(3)
	r.Counter("reads").Add(4)
	if got := r.Counter("reads").Value(); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	g := r.Gauge("peak")
	g.SetMax(10)
	g.SetMax(5)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge SetMax kept %d, want 10", got)
	}
	g.Set(3)
	if got := g.Value(); got != 3 {
		t.Errorf("gauge Set kept %d, want 3", got)
	}
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hs := s.Histograms["lat"]
	if hs.Count != 4 || hs.Sum != 1022 {
		t.Errorf("histogram count/sum = %d/%d, want 4/1022", hs.Count, hs.Sum)
	}
	if want := []int64{2, 1, 1}; len(hs.Counts) != 3 || hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] {
		t.Errorf("bucket counts = %v, want %v", hs.Counts, want)
	}
	if s.Counters["reads"] != 7 || s.Gauges["peak"] != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	// Same name returns the same instrument.
	if r.Histogram("lat", nil) != h {
		t.Error("histogram lookup did not return the existing instance")
	}
}

func TestConformanceReport(t *testing.T) {
	c := NewConformance()
	c.SetRates(1000, 10) // FLOP/s, read bytes/s
	g := c.Group("m1")
	g.SetPredicted(CostPrediction{
		ComputeFLOPsPerRecord: 100,
		ForwardFLOPsPerRecord: 40,
		LoadBytesPerRecord:    8,
		PeakMemoryBytes:       1000,
	})
	g.AddTrainRecords(10)
	g.AddValidRecords(5)
	g.AddComputeTime(1200 * time.Millisecond)
	g.AddLoadTime(12 * time.Second)
	g.ObservePeakMemory(700)
	g.ObservePeakMemory(600) // lower observation must not regress the mark

	reports := c.Report()
	if len(reports) != 1 {
		t.Fatalf("%d reports, want 1", len(reports))
	}
	r := reports[0]
	if r.TrainRecords != 10 || r.ValidRecords != 5 {
		t.Errorf("records: %+v", r)
	}
	// Training records pay Eq. 5, validation records the forward share; both load.
	if r.PredictedComputeFLOPs != 100*10+40*5 || r.PredictedLoadBytes != 8*15 {
		t.Errorf("predicted totals: %+v", r)
	}
	if r.PredictedComputeSec != 1.2 || r.ActualComputeSec != 1.2 || r.ComputeDrift != 1 {
		t.Errorf("compute seconds: %+v", r)
	}
	if r.PredictedLoadSec != 12 || r.LoadDrift != 1 || r.DriftWarn {
		t.Errorf("load seconds: %+v", r)
	}
	if r.ActualPeakMemoryBytes != 700 || r.MemoryUsePct != 70 {
		t.Errorf("memory: %+v", r)
	}
	// A load leg twice as slow as the planner's rate leaves the warn band.
	g.AddLoadTime(12 * time.Second)
	if r = c.Report()[0]; r.LoadDrift != 2 || !r.DriftWarn {
		t.Errorf("drift: load x%v warn %v, want x2 and a warning", r.LoadDrift, r.DriftWarn)
	}
}

func TestWriteSummaryAndReport(t *testing.T) {
	tr := New(nil)
	s := tr.Start("plan/workload")
	s.Child("plan/mat_opt").End()
	s.End()
	still := tr.Start("train/group").SetTrack(3)
	tr.Registry().Counter("trainer.compute_flops").Add(123)
	tr.Registry().Histogram("trainer.feed_wait_ns", []int64{10, 100}).Observe(7)
	gc := tr.Conformance().Group("g")
	gc.SetPredicted(CostPrediction{ComputeFLOPsPerRecord: 2, PeakMemoryBytes: 10})
	gc.AddTrainRecords(3)
	gc.ObservePeakMemory(4)

	rep := tr.Report()
	var buf bytes.Buffer
	if err := WriteSummary(&buf, rep, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"plan/workload", "trainer.feed_wait_ns", "cost-model conformance",
		"3 train + 0 valid records", "predicted 6 FLOPs", "40.0% of bound"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	if rep.Metrics.Counters["trainer.compute_flops"] != 123 {
		t.Errorf("report counters = %+v", rep.Metrics.Counters)
	}
	if len(rep.Conformance) != 1 || rep.Conformance[0].PredictedComputeFLOPs != 6 {
		t.Errorf("report conformance = %+v", rep.Conformance)
	}
	if len(rep.Spans) != 2 {
		t.Errorf("report spans = %+v, want the two ended names", rep.Spans)
	}
	if len(rep.OpenSpans) != 1 || rep.OpenSpans[0].Name != "train/group" || rep.OpenSpans[0].Track != 3 {
		t.Errorf("report open spans = %+v, want train/group on track 3", rep.OpenSpans)
	}
	still.End()
	if rep = tr.Report(); len(rep.OpenSpans) != 0 || len(rep.Spans) != 3 {
		t.Errorf("after End: %d open, %d ended names, want 0 and 3", len(rep.OpenSpans), len(rep.Spans))
	}
}
