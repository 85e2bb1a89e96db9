// End-to-end check of the observability surface: run the nautilus-run CLI
// with -trace, -metrics and -live on a small workload and assert the
// artifacts parse and carry the promised guarantees (valid Chrome trace, one
// telemetry document behind -metrics and -live, metered peak under the
// B_mem estimate). `make trace-demo` runs the same flow interactively.
package nautilus_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nautilus/internal/obs"
)

// chromeTrace mirrors the trace-event envelope chrome://tracing loads.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestTraceDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real training via go run")
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "demo.trace")
	metricsPath := filepath.Join(dir, "demo_metrics.json")
	livePath := filepath.Join(dir, "demo_live.jsonl")
	cmd := exec.Command("go", "run", "./cmd/nautilus-run",
		"-workload", "FTR-3", "-cycles", "1",
		"-trace", tracePath, "-metrics", metricsPath, "-live", livePath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("nautilus-run failed: %v\n%s", err, out)
	}

	// The trace must be a loadable Chrome trace-event file with complete
	// spans across planner, materializer, trainer, and store.
	traceBytes, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace chromeTrace
	if err := json.Unmarshal(traceBytes, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace holds no events")
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete-span X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 || ev.Ts < 0 {
			t.Errorf("event %q has negative timing ts=%v dur=%v", ev.Name, ev.Ts, ev.Dur)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"plan/workload", "plan/mat_opt", "plan/fuse_opt",
		"mat/append_delta", "train/group", "train/epoch", "train/batch", "store/read", "core/fit"} {
		if !names[want] {
			t.Errorf("trace missing %s spans", want)
		}
	}

	// The -metrics file is the telemetry document: per-group conformance
	// with work metered and a peak under the planned bound, the registry,
	// and a stats row for every span name in the trace.
	metricsBytes, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.Report
	if err := json.Unmarshal(metricsBytes, &doc); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v", err)
	}
	if len(doc.Conformance) == 0 {
		t.Fatal("metrics carry no conformance groups")
	}
	for _, g := range doc.Conformance {
		if g.TrainRecords == 0 || g.PredictedComputeFLOPs == 0 || g.ActualComputeSec <= 0 {
			t.Errorf("group %s: no work metered: %+v", g.Group, g)
		}
		if g.ActualPeakMemoryBytes <= 0 || g.ActualPeakMemoryBytes > g.PredictedPeakMemoryBytes {
			t.Errorf("group %s: metered peak %d outside (0, bound %d]",
				g.Group, g.ActualPeakMemoryBytes, g.PredictedPeakMemoryBytes)
		}
	}
	stats := map[string]int64{}
	for _, st := range doc.Spans {
		stats[st.Name] = st.Count
	}
	for name := range names {
		if stats[name] == 0 {
			t.Errorf("span %s is in the trace but has no stats row", name)
		}
	}
	if len(doc.OpenSpans) != 0 {
		t.Errorf("%d spans still open at exit: %+v", len(doc.OpenSpans), doc.OpenSpans)
	}
	counters, gauges := doc.Metrics.Counters, doc.Metrics.Gauges
	if counters["trainer.compute_flops"] == 0 || counters["trainer.steps"] == 0 {
		t.Errorf("trainer counters empty: %+v", counters)
	}
	// One feed wait per optimizer step, one train/batch span per step.
	if h := doc.Metrics.Histograms["trainer.feed_wait_ns"]; h.Count != counters["trainer.steps"] || stats["train/batch"] != h.Count {
		t.Errorf("feed waits %d, train/batch spans %d, trainer.steps %d: want all equal",
			h.Count, stats["train/batch"], counters["trainer.steps"])
	}
	// The disk gauges hold checkpoint traffic on top of the store's.
	if gauges["exec.disk_written_bytes"] <= counters["store.append.bytes"] || gauges["exec.disk_read_bytes"] < counters["store.read.cold_bytes"] {
		t.Errorf("disk gauges %+v below the store's own counters %+v", gauges, counters)
	}

	// The last -live line is the same document taken a moment earlier:
	// every counter and the whole conformance section agree.
	liveBytes, err := os.ReadFile(livePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(liveBytes)), "\n")
	var last obs.Report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last live line is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(last.Metrics.Counters, counters) {
		t.Errorf("last live line counters %+v, metrics file %+v", last.Metrics.Counters, counters)
	}
	if !reflect.DeepEqual(last.Conformance, doc.Conformance) {
		t.Errorf("last live line conformance %+v, metrics file %+v", last.Conformance, doc.Conformance)
	}
}
