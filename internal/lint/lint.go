// Package lint is a stdlib-only static-analysis framework (go/parser +
// go/ast + go/types, no external dependencies) with repo-specific analyzers
// that machine-check Nautilus's prose invariants: determinism (all
// randomness is seeded, no wall-clock reads outside annotated reporting
// sites), no floating-point equality in system logic, layer purity
// (Forward/Backward never stash activations on the receiver — they go
// through the returned cache), no silently dropped errors, and allocation
// hygiene in hot loops.
//
// Every analyzer is a syntactic pass over one type-checked package; none
// builds a control-flow graph or follows calls. ignoreaudit closes the loop
// by flagging suppressions whose analyzer no longer fires. Bugs that are
// properties of runs rather than of source text are left to the test
// suite: lock, goroutine-join, arena-lifetime and chunk-race bugs to the
// race-enabled tests, and spans left open on an error path to the tests
// that end with no open span in the tracer's report (DESIGN.md "Yield").
//
// There is one driver: Loader.Load type-checks the requested packages and
// Analyze sweeps them; nothing is cached between runs.
//
// Findings can be suppressed in source with
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line or on the line directly above it. The
// reason is mandatory; a suppression without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Fset     *token.FileSet

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file. Analyzers whose
// invariants only bind production code (floateq, uncheckederr) skip such
// positions.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding, positioned for editors and stable for JSON
// round-trips.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// DefaultAnalyzers returns the full Nautilus analyzer suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		AllocHygieneAnalyzer,
		DeterminismAnalyzer,
		FloatEqAnalyzer,
		IgnoreAuditAnalyzer,
		LayerPurityAnalyzer,
		UncheckedErrAnalyzer,
	}
}

// SelectAnalyzers resolves a comma-separated -analyzers spec against a
// suite: bare names form an include set (suite order preserved), a leading
// '-' excludes from the suite, and mixing both applies the excludes to the
// include set. An empty spec selects everything; an unknown name is an
// error.
func SelectAnalyzers(all []*Analyzer, spec string) ([]*Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return all, nil
	}
	known := map[string]bool{}
	for _, a := range all {
		known[a.Name] = true
	}
	include := map[string]bool{}
	exclude := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, neg := strings.CutPrefix(tok, "-")
		if !known[name] {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		if neg {
			exclude[name] = true
		} else {
			include[name] = true
		}
	}
	var out []*Analyzer
	for _, a := range all {
		if exclude[a.Name] || (len(include) > 0 && !include[a.Name]) {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}

// AnalyzerTiming is one analyzer's wall time summed over every package of
// a run, reported in Result and the CLI's -json output.
type AnalyzerTiming struct {
	Analyzer string `json:"analyzer"`
	WallNs   int64  `json:"wall_ns"`
}

// PackageTiming is one package's wall time for the full analyzer sweep
// (suppression scan included), reported in the CLI's -json envelope.
type PackageTiming struct {
	Package string `json:"package"`
	WallNs  int64  `json:"wall_ns"`
}

// Result is the outcome of one Analyze sweep.
type Result struct {
	// Findings is the post-suppression diagnostic list, sorted by
	// (file, line, analyzer, col, message).
	Findings []Diagnostic
	// Analyzers holds per-analyzer wall time, one entry per analyzer in
	// the order given, summed across packages.
	Analyzers []AnalyzerTiming
	// Packages holds per-package wall time in package order.
	Packages []PackageTiming
}

// Analyze runs the analyzer suite over every package, packages in
// parallel (bounded by GOMAXPROCS), analyzers sequentially within each.
// Suppression scanning, filtering, and the stale-suppression audit are
// per package — a //lint:ignore only ever faces findings from its own
// package — and results are merged in package order then sorted, so the
// output is deterministic regardless of scheduling. Malformed suppression
// comments are reported under the analyzer name "lint".
func Analyze(pkgs []*Package, analyzers []*Analyzer, fset *token.FileSet) Result {
	type pkgRun struct {
		sup     *suppressions
		diags   []Diagnostic
		wall    []time.Duration
		elapsed time.Duration
	}
	runs := make([]*pkgRun, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r := &pkgRun{sup: newSuppressions(), wall: make([]time.Duration, len(analyzers))}
			//lint:ignore determinism wall-clock measurement of analyzer runtime for -json timing output
			pkgStart := time.Now()
			r.sup.scan(pkg, fset, &r.diags)
			for j, a := range analyzers {
				pass := &Pass{Analyzer: a, Pkg: pkg, Fset: fset, diags: &r.diags}
				//lint:ignore determinism wall-clock measurement of analyzer runtime for -json timing output
				start := time.Now()
				a.Run(pass)
				//lint:ignore determinism wall-clock measurement of analyzer runtime for -json timing output
				r.wall[j] += time.Since(start)
			}
			//lint:ignore determinism wall-clock measurement of analyzer runtime for -json timing output
			r.elapsed = time.Since(pkgStart)
			runs[i] = r
		}(i, pkg)
	}
	wg.Wait()

	var res Result
	wall := make([]time.Duration, len(analyzers))
	ran := analyzerNames(analyzers)
	audit := ran[IgnoreAuditAnalyzer.Name]
	for i, pkg := range pkgs {
		r := runs[i]
		for _, d := range r.diags {
			if !r.sup.suppressed(d) {
				res.Findings = append(res.Findings, d)
			}
		}
		// The stale-suppression audit must run after filtering: a
		// suppression is live exactly when it hid a finding above.
		if audit {
			res.Findings = append(res.Findings, r.sup.audit(ran)...)
		}
		for j := range analyzers {
			wall[j] += r.wall[j]
		}
		res.Packages = append(res.Packages, PackageTiming{Package: pkg.Path, WallNs: r.elapsed.Nanoseconds()})
	}
	sortDiagnostics(res.Findings)
	res.Analyzers = make([]AnalyzerTiming, len(analyzers))
	for i, a := range analyzers {
		res.Analyzers[i] = AnalyzerTiming{Analyzer: a.Name, WallNs: wall[i].Nanoseconds()}
	}
	return res
}

// sortDiagnostics puts findings in output order: (file, line, analyzer,
// col, message).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

func analyzerNames(analyzers []*Analyzer) map[string]bool {
	names := map[string]bool{}
	for _, a := range analyzers {
		names[a.Name] = true
	}
	return names
}

// ignoreRe matches the suppression syntax after the "//" comment marker.
var ignoreRe = regexp.MustCompile(`^lint:ignore\s+(\S+)(?:\s+(.*))?$`)

// pragma is one well-formed //lint:ignore comment, tracked for the stale-
// suppression audit: used records which of its named analyzers it actually
// silenced during a run.
type pragma struct {
	file  string
	line  int
	col   int
	names []string
	used  map[string]bool
}

// suppressions indexes //lint:ignore comments by (file, effective line):
// a comment suppresses matching findings on its own line and the next.
type suppressions struct {
	byLine  map[string]map[int]map[string][]*pragma
	pragmas []*pragma
}

func newSuppressions() *suppressions {
	return &suppressions{byLine: map[string]map[int]map[string][]*pragma{}}
}

func (s *suppressions) scan(pkg *Package, fset *token.FileSet, diags *[]Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments don't carry suppressions
				}
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ignoreRe.FindStringSubmatch(text)
				if m == nil || strings.TrimSpace(m[2]) == "" {
					*diags = append(*diags, Diagnostic{
						Analyzer: "lint",
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed suppression: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				pr := &pragma{file: pos.Filename, line: pos.Line, col: pos.Column, used: map[string]bool{}}
				s.pragmas = append(s.pragmas, pr)
				for _, name := range strings.Split(m[1], ",") {
					pr.names = append(pr.names, name)
					s.add(pos.Filename, pos.Line, name, pr)
					s.add(pos.Filename, pos.Line+1, name, pr)
				}
			}
		}
	}
}

func (s *suppressions) add(file string, line int, analyzer string, pr *pragma) {
	lines := s.byLine[file]
	if lines == nil {
		lines = map[int]map[string][]*pragma{}
		s.byLine[file] = lines
	}
	set := lines[line]
	if set == nil {
		set = map[string][]*pragma{}
		lines[line] = set
	}
	set[analyzer] = append(set[analyzer], pr)
}

func (s *suppressions) suppressed(d Diagnostic) bool {
	if d.Analyzer == "lint" || d.Analyzer == IgnoreAuditAnalyzer.Name {
		return false // framework findings are not suppressible
	}
	prs := s.byLine[d.File][d.Line][d.Analyzer]
	for _, pr := range prs {
		pr.used[d.Analyzer] = true
	}
	return len(prs) > 0
}

// audit reports pragmas that silenced nothing: for each well-formed
// //lint:ignore, every named analyzer that was part of the run but did not
// produce a finding under the pragma is a stale suppression hiding a
// violation that no longer exists.
func (s *suppressions) audit(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, pr := range s.pragmas {
		for _, name := range pr.names {
			if !ran[name] || pr.used[name] {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: IgnoreAuditAnalyzer.Name,
				File:     pr.file,
				Line:     pr.line,
				Col:      pr.col,
				Message:  fmt.Sprintf("stale suppression: %s reports no finding here; remove the //lint:ignore", name),
			})
		}
	}
	return out
}

// rootIdent unwraps selector/index/star/paren chains to the base
// identifier, or nil if the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
