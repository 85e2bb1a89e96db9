package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// loadFixtureDiags runs the full analyzer suite over the violations
// fixture with or without the export-data importer.
func loadFixtureDiags(t *testing.T, noExportData bool) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", "violations")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	loader.noExportData = noExportData
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze([]*Package{pkg}, DefaultAnalyzers(), loader.Fset).Findings
}

// stripPos projects diagnostics onto their content; positions are compared
// via line/col only because the two loaders use distinct FileSets.
type diagKey struct {
	Analyzer, Message string
	Line, Col         int
}

// TestExportDataImporterMatchesSourceImporter is the regression guard for
// the cached stdlib import path: type-checking against compiled export
// data from the Go build cache must produce exactly the diagnostics the
// slow source-importer path produces.
func TestExportDataImporterMatchesSourceImporter(t *testing.T) {
	fast := loadFixtureDiags(t, false)
	slow := loadFixtureDiags(t, true)
	key := func(ds []Diagnostic) []diagKey {
		out := make([]diagKey, len(ds))
		for i, d := range ds {
			out[i] = diagKey{d.Analyzer, d.Message, d.Line, d.Col}
		}
		return out
	}
	if !reflect.DeepEqual(key(fast), key(slow)) {
		t.Errorf("importer modes disagree:\n export-data: %+v\n source: %+v", fast, slow)
	}
	if len(fast) == 0 {
		t.Error("fixture produced no diagnostics")
	}
}

// TestExportLookupFindsStdlib asserts the lazy `go list -export` sweep
// actually resolves standard-library export data (the speedup is real, not
// a silent fallback to the source importer).
func TestExportLookupFindsStdlib(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"fmt", "time", "go/types"} {
		if !loader.exports.has(path) {
			t.Errorf("no export data for %q; go list sweep failed", path)
		}
	}
	if loader.exports.has("nonexistent/package") {
		t.Error("phantom export data for nonexistent package")
	}
}

// writeTempModule lays out a throwaway two-package Go module (b imports a)
// plus a directory holding no Go files.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":         "module tmpmod\n\ngo 1.21\n",
		"a/a.go":         "package a\n\nfunc Eq(x, y float64) bool { return x == y }\n",
		"b/b.go":         "package b\n\nimport \"tmpmod/a\"\n\nfunc Use(x float64) bool { return a.Eq(x, 0.1) }\n",
		"docs/README.md": "no Go here\n",
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadPatterns pins pattern resolution: "./..." walks the module, a
// bare directory names one package, overlapping patterns deduplicate, the
// result is sorted by import path, and a directory without Go files is an
// error rather than an empty package.
func TestLoadPatterns(t *testing.T) {
	root := writeTempModule(t)
	for _, tc := range []struct {
		patterns []string
		want     []string
	}{
		{nil, []string{"tmpmod/a", "tmpmod/b"}},
		{[]string{"./..."}, []string{"tmpmod/a", "tmpmod/b"}},
		{[]string{"b"}, []string{"tmpmod/b"}},
		{[]string{"./b", "b", "./...", filepath.Join(root, "a")}, []string{"tmpmod/a", "tmpmod/b"}},
	} {
		loader, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.Load(tc.patterns...)
		if err != nil {
			t.Fatalf("Load(%q): %v", tc.patterns, err)
		}
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Load(%q) = %v, want %v", tc.patterns, got, tc.want)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("./docs"); err == nil {
		t.Error("Load of a directory with no Go files succeeded")
	}
}

// TestLoadChecksAnalyzedBodies guards the loader's split: importers get a
// declarations-only variant of a package, but a package handed to the
// analyzers has every function body type-checked, so a body error there is
// still a load error.
func TestLoadChecksAnalyzedBodies(t *testing.T) {
	root := writeTempModule(t)
	bad := "package a\n\nfunc Eq(x, y float64) bool { return x == \"y\" }\n"
	if err := os.WriteFile(filepath.Join(root, "a", "a.go"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("./..."); err == nil || !strings.Contains(err.Error(), "tmpmod/a") {
		t.Errorf("Load over a body type error = %v, want an error naming tmpmod/a", err)
	}
}
