package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seededRegression re-introduces one bug into a copy of a real package: old
// is replaced by new in file, and want names the analyzer that must report
// in that file. want == "" records a gap — a regression no analyzer sees —
// so that an analyzer learning to see it flips the row visibly.
type seededRegression struct {
	name      string
	dir, file string // package directory (module-relative) and file in it
	old, new  string
	want      string
}

// seededRegressions is the yield corpus: why each analyzer is in the suite
// (DESIGN.md "Yield" prints this table; TestSeededRegressions holds the two
// equal). PR numbers name the change that fixed the bug the row re-seeds.
var seededRegressions = []seededRegression{
	{
		name: "Dropout.Forward writes its receiver (PR 1)",
		dir:  "internal/layers", file: "activation.go",
		old:  "\tmd, xd, od := mask.Data(), x.Data(), out.Data()\n",
		new:  "\tl.Rate = 1 - float64(keep)\n\tmd, xd, od := mask.Data(), x.Data(), out.Data()\n",
		want: "layerpurity",
	},
	{
		name: "Trainer prefetch drain not deferred (PR 5)",
		dir:  "internal/exec", file: "trainer.go",
		old: "\t\tdefer func() {\n\t\t\tfor fed := range nextFeeds {\n\t\t\t\tfed.scope.Release()\n\t\t\t}\n\t\t}()\n" +
			"\t\tfor bi, idx := range batches {\n",
		new:  "\t\tfor bi, idx := range batches {\n",
		want: "goroutinejoin",
	},
	{
		name: "Materializer chunk drain not deferred (PR 5)",
		dir:  "internal/exec", file: "materializer.go",
		old: "\tdefer func() {\n\t\tfor c := range chunks {\n\t\t\tc.scope.Release()\n\t\t}\n\t}()\n" +
			"\tfor c := range chunks {\n",
		new:  "\tfor c := range chunks {\n",
		want: "goroutinejoin",
	},
	{
		name: "Exporter serve goroutine launched without wg.Add (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\t\te.wg.Add(1)\n\t\tgo func() {\n",
		new:  "\t\tgo func() {\n",
		want: "goroutinejoin",
	},
	{
		name: "Exporter snapshotLoop launched without wg.Add (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\te.wg.Add(1)\n\tgo e.snapshotLoop()\n",
		new:  "\tgo e.snapshotLoop()\n",
		want: "",
	},
	{
		name: "Exporter.Close does not wg.Wait (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\te.wg.Wait()\n\te.mu.Lock()\n",
		new:  "\te.mu.Lock()\n",
		want: "",
	},
	{
		name: "Exporter.snapshotLoop never calls wg.Done (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\tdefer e.wg.Done()\n\tticker := ",
		new:  "\tticker := ",
		want: "",
	},
	{
		name: "Span.SetTrack writes track without the tracer mutex (PR 20)",
		dir:  "internal/obs", file: "obs.go",
		old:  "\t\ts.t.mu.Lock()\n\t\ts.track = track\n\t\ts.t.mu.Unlock()\n",
		new:  "\t\ts.track = track\n",
		want: "", // a data race, not a lock-protocol error: go test -race owns it
	},
	{
		name: "Span.End returns early holding t.mu",
		dir:  "internal/obs", file: "obs.go",
		old:  "\t\td := s.dur\n\t\tt.mu.Unlock()\n\t\treturn d\n",
		new:  "\t\treturn s.dur\n",
		want: "locksafe",
	},
	{
		name: "Arena.Scope pool hit returns holding a.mu",
		dir:  "internal/tensor", file: "arena.go",
		old:  "\t\ts.idle = false\n\t\ta.mu.Unlock()\n\t\treturn s\n",
		new:  "\t\ts.idle = false\n\t\treturn s\n",
		want: "locksafe",
	},
	{
		name: "Span.Track calls SetTrack under the mutex both take",
		dir:  "internal/obs", file: "obs.go",
		old:  "\tdefer s.t.mu.Unlock()\n\treturn s.track\n",
		new:  "\tdefer s.t.mu.Unlock()\n\treturn s.SetTrack(s.track).track\n",
		want: "locksafe",
	},
	{
		name: "TensorStore.SetObs never unlocks",
		dir:  "internal/storage", file: "tensorstore.go",
		old:  "\ts.obs = tr\n\ts.mu.Unlock()\n",
		new:  "\ts.obs = tr\n",
		want: "", // reads as a lock helper: held at exit on every path
	},
	{
		name: "Trainer validation scope released before scoring",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tw := float64(len(idx)) / float64(vn)\n",
		new:  "\t\t\tw := float64(len(idx)) / float64(vn)\n\t\t\tstep.Release()\n",
		want: "arenaescape",
	},
	{
		name: "Trainer step scope recycled before the optimizer step",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tall := tape.ParamGrads()\n",
		new:  "\t\t\tstep.Recycle()\n\t\t\tall := tape.ParamGrads()\n",
		want: "arenaescape",
	},
	{
		name: "Materializer chunk scope released before Append",
		dir:  "internal/exec", file: "materializer.go",
		old:  "\t\tfor _, node := range nodes {\n\t\t\tif err := mz.store.Append(",
		new:  "\t\tc.scope.Release()\n\t\tfor _, node := range nodes {\n\t\t\tif err := mz.store.Append(",
		want: "", // the scope is a struct field (c.scope), not a tracked local
	},
	{
		name: "Trainer wall-clock read loses its pragma",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t//lint:ignore determinism wall-clock measurement of training time for Metrics reporting\n",
		new:  "",
		want: "determinism",
	},
	{
		name: "Dropout Rate==0 sentinel loses its pragma",
		dir:  "internal/layers", file: "activation.go",
		old:  "\t//lint:ignore floateq Rate==0 is the exact configured no-op sentinel\n",
		new:  "",
		want: "floateq",
	},
	{
		name: "Exporter drops the snapshot file's Close error silently",
		dir:  "internal/obs", file: "export.go",
		old:  "\t\t\t\t_ = e.f.Close() // nothing written yet; the listen error wins\n",
		new:  "\t\t\t\te.f.Close()\n",
		want: "uncheckederr",
	},
	{
		name: "Dropout mask allocated outside the step arena",
		dir:  "internal/layers", file: "activation.go",
		old:  "\tmask := tensor.NewFrom(x, x.Shape()...)\n",
		new:  "\tmask := tensor.New(x.Shape()...)\n",
		want: "allochygiene",
	},
	{
		name: "Trainer validation span not ended on a feed error",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tif err != nil {\n\t\t\t\tvs.End()\n\t\t\t\treturn nil, err\n\t\t\t}\n\t\t\tvb := ",
		new:  "\t\t\tif err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n\t\t\tvb := ",
		want: "spanleak",
	},
	{
		name: "LayerNorm row mean hoisted out of the fan-out callback",
		dir:  "internal/layers", file: "norm.go",
		old: "\ttensor.Parallel(rows, x.Len()*8, func(lo, hi int) {\n\t\tfor r := lo; r < hi; r++ {\n" +
			"\t\t\txr, or, hr := x.Row(r), out.Row(r), xhat.Row(r)\n\t\t\tvar mean float64\n",
		new: "\tvar mean float64\n\ttensor.Parallel(rows, x.Len()*8, func(lo, hi int) {\n\t\tfor r := lo; r < hi; r++ {\n" +
			"\t\t\txr, or, hr := x.Row(r), out.Row(r), xhat.Row(r)\n\t\t\tmean = 0\n",
		want: "chunkdisjoint",
	},
	{
		name: "Stale floateq pragma on an integer comparison",
		dir:  "internal/layers", file: "activation.go",
		old:  "func requireInputs(typ string, in [][]int, n int) {\n",
		new:  "func requireInputs(typ string, in [][]int, n int) {\n\t//lint:ignore floateq lengths are integers\n",
		want: "ignoreaudit",
	},
}

// TestSeededRegressions is the yield test behind the analyzer suite: each
// row's bug, seeded into a copy of the package it once lived in, must be
// caught by the analyzer the row names — and a gap row by none.
func TestSeededRegressions(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// analyze type-checks the package's non-test files with file's content
	// replaced (when file != "") under the package's real import path, so
	// the analyzers' package-path matching sees product code.
	analyze := func(t *testing.T, dir, file, content string) []Diagnostic {
		t.Helper()
		src := filepath.Join(loader.ModuleRoot, filepath.FromSlash(dir))
		tmp := t.TempDir()
		entries, err := os.ReadDir(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			b := []byte(content)
			if name != file {
				if b, err = os.ReadFile(filepath.Join(src, name)); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(tmp, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := loader.ModulePath + "/" + dir
		loader.dirOf[path] = tmp
		defer delete(loader.dirOf, path)
		pkg, err := loader.analysisPackage(path)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze([]*Package{pkg}, DefaultAnalyzers(), loader.Fset).Findings
	}

	cleanChecked := map[string]bool{}
	wanted := map[string]bool{}
	for _, row := range seededRegressions {
		wanted[row.want] = true
		t.Run(row.name, func(t *testing.T) {
			b, err := os.ReadFile(filepath.Join(loader.ModuleRoot, filepath.FromSlash(row.dir), row.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(b), row.old); n != 1 {
				t.Fatalf("old text matches %s/%s %d times, want exactly once — the seed has rotted", row.dir, row.file, n)
			}
			if !cleanChecked[row.dir] {
				cleanChecked[row.dir] = true
				for _, d := range analyze(t, row.dir, "", "") {
					t.Errorf("unseeded copy of %s is not clean: %s", row.dir, d)
				}
			}
			var got []string
			caught := false
			for _, d := range analyze(t, row.dir, row.file, strings.Replace(string(b), row.old, row.new, 1)) {
				got = append(got, fmt.Sprintf("%s:%d: %s: %s", filepath.Base(d.File), d.Line, d.Analyzer, d.Message))
				if d.Analyzer == row.want && filepath.Base(d.File) == row.file {
					caught = true
				}
			}
			switch {
			case row.want == "" && len(got) > 0:
				t.Errorf("recorded gap is now caught — name the analyzer in the row:\n%s", strings.Join(got, "\n"))
			case row.want != "" && !caught:
				t.Errorf("%s reports nothing in %s; findings:\n%s", row.want, row.file, strings.Join(got, "\n"))
			}
		})
	}
	for _, a := range DefaultAnalyzers() {
		if !wanted[a.Name] {
			t.Errorf("no seeded regression wants %s: seed one or delete the analyzer", a.Name)
		}
	}

	// DESIGN.md "Yield" prints this table as the reason each analyzer is in
	// the suite; hold the two equal.
	design, err := os.ReadFile(filepath.Join(loader.ModuleRoot, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range yieldTable() {
		if !strings.Contains(string(design), line) {
			t.Errorf("DESIGN.md \"Yield\" lacks the row\n%s", line)
		}
	}
}

// yieldTable renders the corpus as DESIGN.md's markdown rows: one per seed
// (seed, file, catching analyzer or gap), then one per analyzer with its
// caught count (a row prefix; DESIGN.md adds the gaps column by hand).
func yieldTable() []string {
	var lines []string
	caught := map[string]int{}
	for _, row := range seededRegressions {
		by := "— (gap)"
		if row.want != "" {
			by = "`" + row.want + "`"
			caught[row.want]++
		}
		lines = append(lines, fmt.Sprintf("| %s | `%s/%s` | %s |", row.name, row.dir, row.file, by))
	}
	for _, a := range DefaultAnalyzers() {
		lines = append(lines, fmt.Sprintf("| `%s` | %d |", a.Name, caught[a.Name]))
	}
	return lines
}
