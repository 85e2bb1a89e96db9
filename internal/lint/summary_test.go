package lint

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

func loadSummaryFixture(t *testing.T) *summarySet {
	t.Helper()
	dir := filepath.Join("testdata", "src", "summaries")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg.summaries()
}

func summaryByName(t *testing.T, s *summarySet, name string) *funcSummary {
	t.Helper()
	for fn, sum := range s.byFn {
		if fn.Name() == name {
			return sum
		}
	}
	t.Fatalf("no summary for %s", name)
	return nil
}

func TestSummaryEndsSpan(t *testing.T) {
	s := loadSummaryFixture(t)
	for name, want := range map[string]bool{
		"endSpan":          true,
		"endSpanBranch":    false,
		"endSpanDelegated": true, // one level of delegation
		"endSpanMutualA":   true, // mutual recursion converges optimistically
		"endSpanMutualB":   true,
		"spanCycleLeaky":   false, // the escape path lowers the seed
	} {
		if got := summaryByName(t, s, name).params[0].Discharges; got != want {
			t.Errorf("%s Discharges = %v, want %v", name, got, want)
		}
	}
}

// TestSummaryDischargesEveryProtocol generates, for every row of the
// protocol table, a direct discharger, a one-branch one, a mutually
// recursive pair (true only through the optimistic seed of its SCC) and a
// parameter of an unlisted type, and reads the one Discharges fact off
// each — so a new row is covered the day it is added.
func TestSummaryDischargesEveryProtocol(t *testing.T) {
	var imports, funcs strings.Builder
	for i, pr := range protocols {
		fmt.Fprintf(&imports, "\tp%d %q\n", i, pr.pkgPath)
		typ, term := fmt.Sprintf("*p%d.%s", i, pr.typeName), pr.terminal
		fmt.Fprintf(&funcs, "func direct%d(v %s) { v.%s() }\n", i, typ, term)
		fmt.Fprintf(&funcs, "func branch%d(v %s, ok bool) {\n\tif ok {\n\t\tv.%s()\n\t}\n}\n", i, typ, term)
		fmt.Fprintf(&funcs, "func mutualA%d(v %s, n int) {\n\tif n == 0 {\n\t\tv.%s()\n\t\treturn\n\t}\n\tmutualB%d(v, n-1)\n}\n", i, typ, term, i)
		fmt.Fprintf(&funcs, "func mutualB%d(v %s, n int) { mutualA%d(v, n) }\n", i, typ, i)
		fmt.Fprintf(&funcs, "func unlisted%d(v %s, w *int) { v.%s() }\n", i, typ, term)
	}
	dir := filepath.Join(t.TempDir(), "protos")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package protos\n\nimport (\n" + imports.String() + ")\n\n" + funcs.String()
	if err := os.WriteFile(filepath.Join(dir, "protos.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := pkg.summaries()
	for i, pr := range protocols {
		label := path.Base(pr.pkgPath) + "." + pr.typeName + "." + pr.terminal
		for name, want := range map[string]bool{"direct": true, "branch": false, "mutualA": true, "mutualB": true} {
			if got := summaryByName(t, s, fmt.Sprint(name, i)).params[0].Discharges; got != want {
				t.Errorf("%s: %s Discharges = %v, want %v", label, name, got, want)
			}
		}
		if summaryByName(t, s, fmt.Sprint("unlisted", i)).params[1].Discharges {
			t.Errorf("%s: a *int parameter summarizes as discharging", label)
		}
	}
}

func TestSummaryErrorFacts(t *testing.T) {
	s := loadSummaryFixture(t)
	cases := map[string]bool{ // errNever
		"errNil":     true,
		"errBoom":    false,
		"errMixed":   false,
		"errForward": true, // inherits errNil through the call
	}
	for name, want := range cases {
		if got := summaryByName(t, s, name).errNever; got != want {
			t.Errorf("%s errNever = %v, want %v", name, got, want)
		}
	}
}

func TestSummaryEscapes(t *testing.T) {
	s := loadSummaryFixture(t)
	if summaryByName(t, s, "keepLocal").params[0].Escapes {
		t.Error("keepLocal's nil-comparison counts as an escape")
	}
	if !summaryByName(t, s, "stash").params[0].Escapes {
		t.Error("stash stores to a package variable but does not summarize as escaping")
	}
	if !summaryByName(t, s, "endSpan").params[0].Discharges {
		t.Fatal("precondition: endSpan ends its span")
	}
}
