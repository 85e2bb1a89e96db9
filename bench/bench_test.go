package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"nautilus/internal/core"
	"nautilus/internal/workloads"
)

func testEnv(t *testing.T) *env {
	t.Helper()
	e, _, err := newEnv(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.RemoveAll(e.workRoot); err != nil {
			t.Error(err)
		}
	})
	return e
}

// A trimmed one-cycle FTR-3 through both drivers: the staged (traced)
// driver must time the same work as the Fit loop, and both approaches must
// train every candidate to the same accuracy.
func TestStagedMatchesFitAndCurrentPractice(t *testing.T) {
	spec := workloads.FTR3()
	spec.BatchSizes = spec.BatchSizes[:1]
	spec.LRs = spec.LRs[:2]
	spec.Epochs = []int{2}
	tw := trainWorkload{spec: spec, approach: core.Nautilus, cycles: 1, perCycle: 20, trainPer: 16}
	e := testEnv(t)

	fit, err := tw.session(e, core.Nautilus, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.accs) != spec.NumModels() || fit.ops != len(fit.accs) {
		t.Fatalf("Fit loop: %d results, %d ops, want %d", len(fit.accs), fit.ops, spec.NumModels())
	}
	rec := newRecorder("test")
	staged, err := tw.staged(e, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, failures := diffAccs("staged vs Fit", staged.accs, fit.accs); len(failures) > 0 || len(staged.accs) != len(fit.accs) {
		t.Errorf("staged driver diverged from the Fit loop: %v", failures)
	}
	for _, name := range exactCounts {
		if math.Float64bits(staged.layer[name]) != math.Float64bits(fit.layer[name]) {
			t.Errorf("%s: staged %v, Fit loop %v", name, staged.layer[name], fit.layer[name])
		}
	}
	n, failures, _, err := sampleParity(e, tw, fit.accs, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fit.accs) || len(failures) > 0 {
		t.Errorf("parity: compared %d of %d, failures %v", n, len(fit.accs), failures)
	}

	// A flipped bit must be caught.
	bad := append([]candAcc(nil), fit.accs...)
	bad[0].LossBits ^= 1
	if _, failures := diffAccs("flipped", bad, fit.accs); len(failures) != 1 {
		t.Errorf("a flipped loss bit gave %d failures, want 1", len(failures))
	}

	// The span tree is session > cycle > stage, and the stages leave next
	// to nothing of a cycle unattributed.
	if rec.spans[0].Name != "session" || rec.spans[1].Name != "cycle" || rec.spans[1].Parent != 0 {
		t.Fatalf("span tree starts %+v", rec.spans[:2])
	}
	for _, stage := range []string{"core.replan", "exec.materialize", "exec.train_group", "exec.checkpoint"} {
		if staged.layer[stage+"_s"] <= 0 {
			t.Errorf("no time recorded for stage %s", stage)
		}
	}
	if pct := staged.layer["bench.unattributed_pct"]; pct < 0 || pct > 5 {
		t.Errorf("unattributed share of cycle time %.2f%%, want < 5%%", pct)
	}
	if staged.layer["graph.forward_s"] <= 0 || staged.layer["opt.mat_solve_s"] <= 0 {
		t.Errorf("probes recorded nothing: %v", staged.layer)
	}
	path := filepath.Join(e.workRoot, "trace.jsonl")
	if err := rec.flush(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
		t.Errorf("trace file: %d bytes, %v", len(b), err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "session", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "cycle", Start: 0, End: 4},
		{ID: 2, Parent: 1, Name: "exec.train_group", Start: 0.5, End: 3},
		{ID: 3, Parent: 1, Name: "exec.checkpoint", Start: 3, End: 3.5},
		{ID: 4, Parent: 0, Name: "cycle", Start: 4, End: 10},
		{ID: 5, Parent: 4, Name: "exec.train_group", Start: 4, End: 10},
	}
	want := []float64{0, 1, 2.5, 0.5, 0, 6}
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-12 {
			t.Errorf("self time of span %d = %v, want %v", i, got, want[i])
		}
	}
	totals := totalsUnder(spans, 0)
	if math.Abs(totals["exec.train_group"]-8.5) > 1e-12 || math.Abs(totals["exec.checkpoint"]-0.5) > 1e-12 || math.Abs(totals["cycle"]-10) > 1e-12 {
		t.Errorf("totals under the session: %v", totals)
	}
	if got := unattributedPct(spans, 0); math.Abs(got-10) > 1e-9 {
		t.Errorf("unattributed = %v%%, want 10%% (1 s of 10 s of cycle time)", got)
	}
	var nilRec *recorder
	if id := nilRec.start("x", -1, 0); id != -1 {
		t.Errorf("nil recorder start = %d", id)
	}
	nilRec.end(-1)
	if err := nilRec.flush("unused"); err != nil {
		t.Error(err)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	if m := median(vals); math.Float64bits(m) != math.Float64bits(3) {
		t.Errorf("median = %v", m)
	}
	if m := median(vals[:4]); math.Float64bits(m) != math.Float64bits(3) {
		t.Errorf("even median = %v", m)
	}
	if q := quantile(vals, 0.8); math.Float64bits(q) != math.Float64bits(4) {
		t.Errorf("p80 = %v", q)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestRowChecksum(t *testing.T) {
	a, b := make([]float32, storeRowFloats), make([]float32, storeRowFloats)
	sum := fillRow(a, 7, 2, 99)
	if rowSum(a) != sum {
		t.Error("rowSum disagrees with fillRow")
	}
	if fillRow(b, 7, 2, 100) == sum || fillRow(b, 8, 2, 99) == sum {
		t.Error("neighbouring rows or seeds share a checksum")
	}
	// A row read one float late, as after a torn append, must not pass.
	if rowSum(append(a[1:], 0)) == sum {
		t.Error("shifted row passes the checksum")
	}
}

// The contract's limits on names, units and counts, and BENCHMARK.json
// saying what the code says.
func TestContract(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	ws := allWorkloads()
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	for _, w := range ws {
		name(w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.name, len(w.why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.Bound > 0)
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, c := range exactCounts {
		if !seen[c] {
			t.Errorf("exact count %q is not a per-layer metric", c)
		}
	}

	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", spec.RunSeconds, spec.Paths)
	}
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q (or their why differs)", i, spec.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, m)
			}
			if (m.Bound > 0) != (g.Bound != nil) || (g.Bound != nil && math.Abs(*g.Bound-m.Bound) > 1e-12) {
				t.Errorf("%s: bound differs between BENCHMARK.json and the code", m.Name)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, endToEnd)
	same("per-layer", spec.PerLayer, perLayer)
}
