package experiments

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"nautilus/internal/lint"
)

// LintBenchResult records one full-module sweep of the static-analysis
// suite, run twice through the incremental cache: a cold leg that
// populates a throwaway cache directory, and a warm leg in a fresh loader
// that must replay every package. Per-analyzer wall time comes from the
// cold leg; the cold/warm ratio gates the cache in BENCH_baseline.json.
type LintBenchResult struct {
	// Packages is the number of packages analyzed.
	Packages int `json:"packages"`
	// Findings is the post-suppression finding count (0 on a clean tree).
	Findings int `json:"findings"`
	// TotalWallNs sums the cold leg's per-package wall times (parallel
	// sweeps can finish in less wall-clock than this).
	TotalWallNs int64 `json:"total_wall_ns"`
	// ColdWallNs / WarmWallNs are the two legs' end-to-end wall times,
	// pattern resolution and (for the cold leg) type-checking included.
	ColdWallNs int64 `json:"cold_wall_ns"`
	WarmWallNs int64 `json:"warm_wall_ns"`
	// WarmSpeedup is ColdWallNs / WarmWallNs.
	WarmSpeedup float64 `json:"warm_speedup"`
	// WarmHits / WarmMisses count cache outcomes on the warm leg; a
	// correct cache has zero warm misses.
	WarmHits   int `json:"warm_hits"`
	WarmMisses int `json:"warm_misses"`
	// WarmIdentical records that the warm leg replayed exactly the cold
	// leg's findings (the cache's correctness contract).
	WarmIdentical bool `json:"warm_identical"`
	// Analyzers holds each analyzer's cold-leg wall time summed over all
	// packages.
	Analyzers []lint.AnalyzerTiming `json:"analyzers"`
	// PackageTimings holds cold-leg per-package wall time in package order.
	PackageTimings []lint.PackageTiming `json:"package_timings"`
}

// lintSweep runs one cached full-module sweep with a fresh loader — a
// fresh loader is what a new CLI process has, so the warm leg's speed
// comes from the on-disk cache, not from loader memoization.
func lintSweep(wd, cacheDir string) (lint.Result, lint.CacheStats, error) {
	loader, err := lint.NewLoader(wd)
	if err != nil {
		return lint.Result{}, lint.CacheStats{}, err
	}
	loader.IncludeTests = true
	cache, err := lint.OpenCache(cacheDir, loader, lint.DefaultAnalyzers())
	if err != nil {
		return lint.Result{}, lint.CacheStats{}, err
	}
	return lint.AnalyzeCached(loader, cache, lint.DefaultAnalyzers(), "./...")
}

// LintBench runs every analyzer over the whole module (tests included),
// cold then warm against a throwaway cache, and returns the timing
// breakdown plus the cache's replay behavior.
func LintBench() (*LintBenchResult, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cacheDir, err := os.MkdirTemp("", "nautilus-lint-cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(cacheDir)

	//lint:ignore determinism wall-clock benchmark measurement
	coldStart := time.Now()
	cold, coldStats, err := lintSweep(wd, cacheDir)
	if err != nil {
		return nil, err
	}
	//lint:ignore determinism wall-clock benchmark measurement
	coldWall := time.Since(coldStart)
	if coldStats.Hits != 0 {
		return nil, fmt.Errorf("lint bench: cold leg hit the fresh cache (%d hits)", coldStats.Hits)
	}

	//lint:ignore determinism wall-clock benchmark measurement
	warmStart := time.Now()
	warm, warmStats, err := lintSweep(wd, cacheDir)
	if err != nil {
		return nil, err
	}
	//lint:ignore determinism wall-clock benchmark measurement
	warmWall := time.Since(warmStart)

	out := &LintBenchResult{
		Packages:       coldStats.Misses,
		Findings:       len(cold.Findings),
		ColdWallNs:     coldWall.Nanoseconds(),
		WarmWallNs:     warmWall.Nanoseconds(),
		WarmHits:       warmStats.Hits,
		WarmMisses:     warmStats.Misses,
		WarmIdentical:  reflect.DeepEqual(cold.Findings, warm.Findings),
		Analyzers:      cold.Analyzers,
		PackageTimings: cold.Packages,
	}
	if warmWall > 0 {
		out.WarmSpeedup = float64(coldWall) / float64(warmWall)
	}
	for _, pt := range cold.Packages {
		out.TotalWallNs += pt.WallNs
	}
	return out, nil
}

// PrintLintBench renders the timing breakdown.
func PrintLintBench(w io.Writer, r *LintBenchResult) error {
	p := &printer{w: w}
	p.printf("Lint suite over the module: %d packages, %d finding(s)\n", r.Packages, r.Findings)
	p.printf("%-14s %12s\n", "analyzer", "wall ms")
	for _, a := range r.Analyzers {
		p.printf("%-14s %12.2f\n", a.Analyzer, float64(a.WallNs)/1e6)
	}
	p.printf("%-14s %12.2f\n", "total", float64(r.TotalWallNs)/1e6)
	identical := "identical findings"
	if !r.WarmIdentical {
		identical = "FINDINGS DIVERGED"
	}
	p.printf("cache: cold %.2f ms, warm %.2f ms (%.1fx, %d hit(s) %d miss(es), %s)\n",
		float64(r.ColdWallNs)/1e6, float64(r.WarmWallNs)/1e6,
		r.WarmSpeedup, r.WarmHits, r.WarmMisses, identical)
	return p.err
}
