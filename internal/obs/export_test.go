package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"nautilus/internal/obs"
)

// TestExporterSnapshotsUnderLoad runs the exporter at a fast interval
// while worker goroutines hammer the tracer with spans, metrics, and
// conformance records — the shape `go test -race` needs to certify the
// live snapshot path. Close must join the snapshot goroutine and leave a
// parseable JSONL file whose last line reflects the finished run.
func TestExporterSnapshotsUnderLoad(t *testing.T) {
	tr := obs.New(nil)
	path := filepath.Join(t.TempDir(), "live.jsonl")
	e, err := obs.StartExporter(tr, obs.ExporterConfig{
		SnapshotPath: path,
		Interval:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gc := tr.Conformance().Group(fmt.Sprintf("g%d", w))
			for i := 0; i < perWorker; i++ {
				sp := tr.Start("load/op")
				tr.Registry().Counter("ops").Add(1)
				tr.Registry().Histogram("op_bytes", []int64{10, 100, 1000}).Observe(int64(i))
				gc.AddTrainRecords(1)
				gc.AddComputeTime(time.Microsecond)
				tr.Samples().AddCompute(1000, time.Microsecond)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("exporter wrote no snapshots")
	}
	var last obs.Report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final snapshot is not valid JSON: %v", err)
	}
	if last.Metrics == nil || last.Metrics.Counters["ops"] != workers*perWorker {
		t.Errorf("final snapshot missed work: %+v", last.Metrics)
	}
	if len(last.Conformance) != workers {
		t.Errorf("final snapshot has %d conformance groups, want %d", len(last.Conformance), workers)
	}
	if len(last.OpenSpans) != 0 {
		t.Errorf("final snapshot reports %d open spans after all ended", len(last.OpenSpans))
	}
	if len(last.Spans) != 1 || last.Spans[0].Count != workers*perWorker {
		t.Errorf("final snapshot span stats = %+v, want %d load/op spans", last.Spans, workers*perWorker)
	}
}

// TestExporterCloseWritesFinalSnapshot: with an interval no tick reaches,
// the only snapshot is the one Close flushes, so the file's last line must
// hold a counter bumped just before Close — every time. A Close that shut
// the file without joining the snapshot goroutine would lose that line
// whenever it won the race for the file.
func TestExporterCloseWritesFinalSnapshot(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr := obs.New(nil)
		path := filepath.Join(t.TempDir(), "live.jsonl")
		e, err := obs.StartExporter(tr, obs.ExporterConfig{SnapshotPath: path, Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		tr.Registry().Counter("ops").Add(int64(round + 1))
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		var last obs.Report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("round %d: no final snapshot (%v) in %q", round, err, data)
		}
		if last.Metrics == nil || last.Metrics.Counters["ops"] != int64(round+1) {
			t.Fatalf("round %d: final snapshot %+v, want ops = %d", round, last.Metrics, round+1)
		}
	}
}

// TestSetTrackDuringSnapshots moves spans between tracks while the exporter
// reports the open-span tree every millisecond: trainGroup and feedPipeline
// set the track of spans that are already open, and -live / -listen read it
// from another goroutine. Run under -race (make check does).
func TestSetTrackDuringSnapshots(t *testing.T) {
	tr := obs.New(nil)
	e, err := obs.StartExporter(tr, obs.ExporterConfig{
		SnapshotPath: filepath.Join(t.TempDir(), "live.jsonl"),
		Interval:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		group := tr.Start("train/group").SetTrack(3 * i)
		feed := group.Child("train/feed_assemble")
		if feed.SetTrack(group.Track()+2).Track() != 3*i+2 {
			t.Fatalf("feed span on track %d, want %d", feed.Track(), 3*i+2)
		}
		feed.End()
		group.End()
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestExporterRejectsEmptyConfig pins the constructor's validation.
func TestExporterRejectsEmptyConfig(t *testing.T) {
	if _, err := obs.StartExporter(nil, obs.ExporterConfig{SnapshotPath: "x"}); err == nil {
		t.Error("nil tracer accepted")
	}
	if _, err := obs.StartExporter(obs.New(nil), obs.ExporterConfig{}); err == nil {
		t.Error("config with neither snapshot path nor listen address accepted")
	}
}

// get fetches url and returns the status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

// decodeReport decodes one telemetry document strictly: a key obs.Report
// does not declare is an error.
func decodeReport(t *testing.T, what string, data []byte) obs.Report {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var r obs.Report
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s does not decode into obs.Report: %v\n%s", what, err, data)
	}
	return r
}

// TestExporterHTTPEndpoints is the live-endpoint smoke test: an exporter
// on an ephemeral port serves the whole Report at /metrics and the pprof
// index; the per-section endpoints that preceded the one document are gone.
// Skipped under -short so the fast loop stays network-free.
func TestExporterHTTPEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("HTTP smoke test skipped in -short mode")
	}
	tr := obs.New(nil)
	tr.Registry().Counter("requests").Add(7)
	tr.Registry().Gauge("arena_bytes").Set(4096)
	gc := tr.Conformance().Group("g0")
	gc.SetPredicted(obs.CostPrediction{ComputeFLOPsPerRecord: 10})
	gc.AddTrainRecords(100)
	tr.Start("live/done").End()
	sp := tr.Start("live/root") // stays open so the report has an open span

	e, err := obs.StartExporter(tr, obs.ExporterConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sp.End()
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if e.Addr() == "" {
		t.Fatal("exporter with listener reports empty Addr")
	}
	base := "http://" + e.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d: %s", code, body)
	}
	r := decodeReport(t, "/metrics", body)
	if r.Metrics.Counters["requests"] != 7 || r.Metrics.Gauges["arena_bytes"] != 4096 {
		t.Errorf("/metrics registry = %+v, want requests 7 and arena_bytes 4096", r.Metrics)
	}
	if len(r.Conformance) != 1 || r.Conformance[0].Group != "g0" || r.Conformance[0].PredictedComputeFLOPs != 1000 {
		t.Errorf("/metrics conformance = %+v, want one g0 group predicting 1000 FLOPs", r.Conformance)
	}
	if len(r.Spans) != 1 || r.Spans[0].Name != "live/done" {
		t.Errorf("/metrics spans = %+v, want the ended live/done", r.Spans)
	}
	if len(r.OpenSpans) != 1 || r.OpenSpans[0].Name != "live/root" {
		t.Errorf("/metrics open_spans = %+v, want the live/root span", r.OpenSpans)
	}
	for _, gone := range []string{"/conformance", "/spans"} {
		if code, _ := get(t, base+gone); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", gone, code)
		}
	}
	if code, body := get(t, base+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ index: status %d, does not list profiles", code)
	}
}

// TestOneDocumentBehindEveryOutput is the schema test: the /metrics body,
// the last -live line and the -metrics file of one quiesced tracer all
// decode strictly into obs.Report and differ only in at_ns.
func TestOneDocumentBehindEveryOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a listener")
	}
	dir := t.TempDir()
	tel := obs.Telemetry{
		Trace:   filepath.Join(dir, "t.json"),
		Metrics: filepath.Join(dir, "m.json"),
		Live:    filepath.Join(dir, "l.jsonl"),
		Listen:  "127.0.0.1:0",
	}
	var log bytes.Buffer
	if err := tel.Open(false, &log); err != nil {
		t.Fatal(err)
	}
	tr := tel.Tracer
	root := tr.Start("train/group").SetTrack(3)
	root.Child("train/batch").End()
	root.End()
	tr.Registry().Counter("trainer.steps").Add(4)
	tr.Registry().Gauge("trainer.groups_in_flight").SetMax(2)
	tr.Registry().Histogram("trainer.feed_wait_ns", []int64{10, 100}).Observe(50)
	tr.Conformance().SetRates(1e9, 1e8)
	gc := tr.Conformance().Group("g0")
	gc.SetPredicted(obs.CostPrediction{ComputeFLOPsPerRecord: 10, ForwardFLOPsPerRecord: 4, LoadBytesPerRecord: 8, PeakMemoryBytes: 64})
	gc.AddTrainRecords(100)
	gc.AddValidRecords(10)
	gc.AddComputeTime(time.Millisecond)
	gc.AddLoadTime(time.Millisecond)
	gc.ObservePeakMemory(32)

	m := regexp.MustCompile(`http://(\S+)`).FindStringSubmatch(log.String())
	if m == nil {
		t.Fatalf("Open did not say where it listens: %q", log.String())
	}
	code, body := get(t, "http://"+m[1]+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", code)
	}
	if err := tel.Close(&log); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(tel.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	live, err := os.ReadFile(tel.Live)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(live)), "\n")

	docs := map[string]obs.Report{
		"/metrics body":   decodeReport(t, "/metrics body", body),
		"last -live line": decodeReport(t, "last -live line", []byte(lines[len(lines)-1])),
		"-metrics file":   decodeReport(t, "-metrics file", file),
	}
	want := docs["-metrics file"]
	if want.AtNs <= 0 || len(want.Spans) != 2 || len(want.Conformance) != 1 || want.Metrics.Counters["trainer.steps"] != 4 {
		t.Fatalf("-metrics file is missing sections: %+v", want)
	}
	want.AtNs = 0
	for what, doc := range docs {
		doc.AtNs = 0
		if !reflect.DeepEqual(doc, want) {
			t.Errorf("%s differs from the -metrics file:\n got %+v\nwant %+v", what, doc, want)
		}
	}
}

// TestTelemetryOpenFailureClosesTrace takes the -listen port first, so the
// exporter cannot start after the trace file was created: Open must leave no
// tracer behind and a trace file that is a complete (empty) Chrome trace,
// not an unterminated envelope.
func TestTelemetryOpenFailureClosesTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("opens a listener")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tel := obs.Telemetry{Trace: filepath.Join(t.TempDir(), "t.json"), Listen: ln.Addr().String()}
	if err := tel.Open(false, io.Discard); err == nil {
		t.Fatal("Open succeeded on a taken port")
	}
	if tel.Tracer != nil {
		t.Error("Open failed but left a Tracer")
	}
	if err := tel.Close(io.Discard); err != nil {
		t.Errorf("Close after a failed Open: %v", err)
	}
	data, err := os.ReadFile(tel.Trace)
	if err != nil {
		t.Fatalf("the created trace file was removed: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Errorf("trace file left unterminated: %v\n%s", err, data)
	}
}
