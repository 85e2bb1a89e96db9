// Command nautilus-lint runs the Nautilus static-analysis suite
// (internal/lint) over module packages and exits non-zero on findings.
//
// Usage:
//
//	nautilus-lint [-json] [-tests=false] [-list] [-analyzers=spec] [packages...]
//
// Package patterns are directories relative to the module root; a
// trailing "/..." includes everything beneath. With no arguments it
// checks the whole module. Packages are analyzed in parallel (bounded by
// GOMAXPROCS) with deterministic, (file, line, analyzer)-sorted output.
// Findings print as file:line:col: analyzer: message; with -json they
// arrive as
//
//	{"findings": [...], "timings": [...], "packages": [...]}
//
// where timings carries each analyzer's wall time summed over the run
// ({"analyzer", "wall_ns"}) and packages carries per-package wall time.
//
// -analyzers selects a subset: a comma-separated list of names to include
// ("floateq,uncheckederr"), names prefixed with '-' to exclude from the
// suite ("-allochygiene"), or a mix. -list shows the suite.
//
// Suppress an intentional finding in source with
// `//lint:ignore <analyzer> <reason>` on the offending line or the line
// above it; the ignoreaudit analyzer flags suppressions that no longer
// hide anything.
//
// Exit codes:
//
//	0  clean — no findings
//	1  findings reported
//	2  load or usage error (bad pattern, unknown flag or analyzer,
//	   parse/type-check failure)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nautilus/internal/lint"
)

// jsonReport is the -json output envelope.
type jsonReport struct {
	Findings []lint.Diagnostic     `json:"findings"`
	Timings  []lint.AnalyzerTiming `json:"timings"`
	Packages []lint.PackageTiming  `json:"packages"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings and timings as JSON")
	tests := flag.Bool("tests", true, "also analyze in-package _test.go files")
	list := flag.Bool("list", false, "list analyzers and exit")
	spec := flag.String("analyzers", "", "comma-separated analyzer subset; prefix a name with '-' to exclude it")
	flag.Usage = func() {
		fmt.Fprint(os.Stderr,
			"usage: nautilus-lint [-json] [-tests=false] [-list] [-analyzers=spec] [packages...]\n"+
				"exit codes: 0 no findings, 1 findings reported, 2 load/usage error\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.SelectAnalyzers(lint.DefaultAnalyzers(), *spec)
	if err != nil {
		fatal(err)
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fatal(err)
	}
	res := lint.Analyze(pkgs, analyzers, loader.Fset)

	if *jsonOut {
		if res.Findings == nil {
			res.Findings = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Findings: res.Findings, Timings: res.Analyzers, Packages: res.Packages}); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range res.Findings {
			fmt.Println(d)
		}
	}
	if len(res.Findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "nautilus-lint: %d finding(s)\n", len(res.Findings))
		}
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nautilus-lint:", err)
	os.Exit(2)
}
