package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"nautilus/internal/lint"
)

// finding is the position-and-content tuple the golden test compares on.
type finding struct {
	File     string
	Line     int
	Analyzer string
	Message  string
}

// wantRe extracts golden expectations from fixture comments.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// parseWant reads one fixture file and returns the expected findings: one
// per `// want "<analyzer>: <message>"` comment, plus a framework finding
// for the deliberately malformed suppression line.
func parseWant(t *testing.T, path string) []finding {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Base(path)
	var want []finding
	for i, line := range strings.Split(string(b), "\n") {
		if m := wantRe.FindStringSubmatch(line); m != nil {
			analyzer, msg, ok := strings.Cut(m[1], ": ")
			if !ok {
				t.Fatalf("%s:%d: malformed want comment %q", path, i+1, m[1])
			}
			want = append(want, finding{File: base, Line: i + 1, Analyzer: analyzer, Message: msg})
		}
		if strings.TrimSpace(line) == "//lint:ignore floateq" {
			want = append(want, finding{
				File:     base,
				Line:     i + 1,
				Analyzer: "lint",
				Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
			})
		}
	}
	return want
}

// fixtureFiles globs every .go file of the violations fixture package.
func fixtureFiles(t *testing.T) (dir string, files []string) {
	t.Helper()
	dir = filepath.Join("testdata", "src", "violations")
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files under %s: %v", dir, err)
	}
	return dir, files
}

func runOnFixture(t *testing.T) []lint.Diagnostic {
	t.Helper()
	dir, _ := fixtureFiles(t)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return lint.Analyze([]*lint.Package{pkg}, lint.DefaultAnalyzers(), loader.Fset).Findings
}

// TestViolationsGolden runs the full analyzer suite over the fixture
// package and asserts the exact diagnostic set: every violation class is
// caught at its marked line with its exact message, the valid suppressions
// hide their findings, and the malformed suppression is itself reported.
func TestViolationsGolden(t *testing.T) {
	diags := runOnFixture(t)
	_, files := fixtureFiles(t)

	known := map[string]bool{}
	var want []finding
	for _, f := range files {
		known[filepath.Base(f)] = true
		want = append(want, parseWant(t, f)...)
	}

	var got []finding
	for _, d := range diags {
		if !known[filepath.Base(d.File)] {
			t.Errorf("finding in unexpected file %s", d.File)
		}
		if d.Col <= 0 {
			t.Errorf("finding at %s:%d has no column", d.File, d.Line)
		}
		got = append(got, finding{File: filepath.Base(d.File), Line: d.Line, Analyzer: d.Analyzer, Message: d.Message})
	}

	sortFindings := func(fs []finding) {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].File != fs[j].File {
				return fs[i].File < fs[j].File
			}
			if fs[i].Line != fs[j].Line {
				return fs[i].Line < fs[j].Line
			}
			return fs[i].Analyzer < fs[j].Analyzer
		})
	}
	sortFindings(got)
	sortFindings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics mismatch:\n got: %+v\nwant: %+v", got, want)
	}

	// Every analyzer class must appear at least once — the fixture is the
	// acceptance proof that the suite detects every class it advertises.
	seen := map[string]bool{}
	for _, f := range got {
		seen[f.Analyzer] = true
	}
	for _, a := range lint.DefaultAnalyzers() {
		if !seen[a.Name] {
			t.Errorf("fixture produced no %s finding", a.Name)
		}
	}
}

// TestModuleSweepClean holds the module itself to the bar `make check`
// sets: the whole tree (test files included) under every analyzer, zero
// findings. A new violation in product code fails here, not only in the
// Makefile.
func TestModuleSweepClean(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded %d packages from %s; the sweep did not reach the module", len(pkgs), loader.ModuleRoot)
	}
	for _, d := range lint.Analyze(pkgs, lint.DefaultAnalyzers(), loader.Fset).Findings {
		t.Error(d)
	}
}

// TestRunSortedByPosition pins the CLI contract: diagnostics arrive sorted
// by (file, line, analyzer).
func TestRunSortedByPosition(t *testing.T) {
	diags := runOnFixture(t)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		before := a.File < b.File ||
			(a.File == b.File && a.Line < b.Line) ||
			(a.File == b.File && a.Line == b.Line && a.Analyzer <= b.Analyzer)
		if !before {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestRunTimedReportsEveryAnalyzer asserts -json timing covers the whole
// suite, in suite order.
func TestRunTimedReportsEveryAnalyzer(t *testing.T) {
	dir, _ := fixtureFiles(t)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	analyzers := lint.DefaultAnalyzers()
	timings := lint.Analyze([]*lint.Package{pkg}, analyzers, loader.Fset).Analyzers
	if len(timings) != len(analyzers) {
		t.Fatalf("got %d timings, want %d", len(timings), len(analyzers))
	}
	for i, tm := range timings {
		if tm.Analyzer != analyzers[i].Name {
			t.Errorf("timing %d is %s, want %s", i, tm.Analyzer, analyzers[i].Name)
		}
		if tm.WallNs < 0 {
			t.Errorf("timing for %s is negative: %d", tm.Analyzer, tm.WallNs)
		}
	}
}

// TestIgnoreAuditScopedToRunSet asserts the stale-suppression audit judges
// only analyzers that were part of the run: with the suite trimmed to
// determinism (plus the audit itself), the stale determinism pragma is
// still flagged while pragmas naming analyzers outside the run set stay
// silent.
func TestIgnoreAuditScopedToRunSet(t *testing.T) {
	dir, _ := fixtureFiles(t)
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sub := []*lint.Analyzer{lint.DeterminismAnalyzer, lint.IgnoreAuditAnalyzer}
	diags := lint.Analyze([]*lint.Package{pkg}, sub, loader.Fset).Findings
	audits := 0
	for _, d := range diags {
		if d.Analyzer != "ignoreaudit" {
			continue
		}
		audits++
		if filepath.Base(d.File) != "ignore_violations.go" {
			t.Errorf("audit flagged a pragma for an analyzer outside the run set: %s", d)
		}
	}
	if audits != 1 {
		t.Errorf("got %d ignoreaudit findings, want exactly the stale determinism pragma", audits)
	}

	// Without the audit analyzer in the set, no audit findings at all.
	diags = lint.Analyze([]*lint.Package{pkg}, []*lint.Analyzer{lint.DeterminismAnalyzer}, loader.Fset).Findings
	for _, d := range diags {
		if d.Analyzer == "ignoreaudit" {
			t.Errorf("audit ran without being requested: %s", d)
		}
	}
}

// TestDiagnosticJSONRoundTrip marshals the fixture's findings to JSON and
// back, asserting the -json output is lossless.
func TestDiagnosticJSONRoundTrip(t *testing.T) {
	diags := runOnFixture(t)
	if len(diags) == 0 {
		t.Fatal("fixture produced no diagnostics")
	}
	b, err := json.Marshal(diags)
	if err != nil {
		t.Fatal(err)
	}
	var back []lint.Diagnostic
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(diags, back) {
		t.Errorf("JSON round-trip mismatch:\n got: %+v\nwant: %+v", back, diags)
	}
	for _, key := range []string{"analyzer", "file", "line", "col", "message"} {
		if !strings.Contains(string(b), `"`+key+`"`) {
			t.Errorf("JSON output missing %q field: %s", key, b)
		}
	}
}

// TestAnalyzeParallelDeterminism runs the parallel driver over the fixture
// package and a real module package twice and asserts byte-identical
// findings and per-package timing coverage — scheduling must not leak into
// the output.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	vdir, _ := fixtureFiles(t)
	loader, err := lint.NewLoader(vdir)
	if err != nil {
		t.Fatal(err)
	}
	vpkg, err := loader.LoadDir(vdir)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := loader.Load("internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := append([]*lint.Package{vpkg}, mod...)
	first := lint.Analyze(pkgs, lint.DefaultAnalyzers(), loader.Fset)
	second := lint.Analyze(pkgs, lint.DefaultAnalyzers(), loader.Fset)
	if !reflect.DeepEqual(first.Findings, second.Findings) {
		t.Errorf("parallel runs differ:\n first: %+v\nsecond: %+v", first.Findings, second.Findings)
	}
	if len(first.Packages) != len(pkgs) {
		t.Fatalf("got %d package timings, want %d", len(first.Packages), len(pkgs))
	}
	for i, pt := range first.Packages {
		if pt.Package != pkgs[i].Path {
			t.Errorf("package timing %d is %s, want %s", i, pt.Package, pkgs[i].Path)
		}
		if pt.WallNs <= 0 {
			t.Errorf("package timing for %s is non-positive: %d", pt.Package, pt.WallNs)
		}
	}
}

// TestSelectAnalyzers pins the -analyzers spec semantics: include lists
// keep suite order, '-' excludes, mixes compose, unknown names error.
func TestSelectAnalyzers(t *testing.T) {
	all := lint.DefaultAnalyzers()
	names := func(as []*lint.Analyzer) []string {
		var out []string
		for _, a := range as {
			out = append(out, a.Name)
		}
		return out
	}

	if got, err := lint.SelectAnalyzers(all, ""); err != nil || len(got) != len(all) {
		t.Errorf("empty spec: got %d analyzers (err %v), want the full suite", len(got), err)
	}
	got, err := lint.SelectAnalyzers(all, "uncheckederr,floateq")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"floateq", "uncheckederr"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("include spec: got %v, want %v (suite order)", names(got), want)
	}
	got, err = lint.SelectAnalyzers(all, "-allochygiene")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all)-1 {
		t.Errorf("exclude spec: got %d analyzers, want %d", len(got), len(all)-1)
	}
	for _, a := range got {
		if a.Name == "allochygiene" {
			t.Error("exclude spec kept allochygiene")
		}
	}
	got, err = lint.SelectAnalyzers(all, "floateq,uncheckederr,-floateq")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"uncheckederr"}; !reflect.DeepEqual(names(got), want) {
		t.Errorf("mixed spec: got %v, want %v", names(got), want)
	}
	if _, err := lint.SelectAnalyzers(all, "nosuch"); err == nil {
		t.Error("unknown analyzer name did not error")
	}
}

// TestDiagnosticString pins the human output format the driver prints.
func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{Analyzer: "floateq", File: "x.go", Line: 3, Col: 9, Message: "m"}
	if got, want := d.String(), "x.go:3:9: floateq: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
