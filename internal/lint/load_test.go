package lint

import (
	"path/filepath"
	"reflect"
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
