GO ?= go

.PHONY: build test lint lint-fixtures check bench bench-e2e trace-demo bench-json bench-baseline tune

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# nautilus-lint is the repo's own stdlib static-analysis suite
# (internal/lint): the syntactic analyzers (allochygiene, determinism,
# floateq, layerpurity, uncheckederr), the dataflow-engine analyzers
# (arenaescape, spanleak, goroutinejoin, chunkdisjoint), the typestate
# protocol analyzers (sessionorder, storelease), the interprocedural
# summary-aware locksafe, and the ignoreaudit stale-suppression check. Runs warm through the incremental result cache
# (.nautilus-lint-cache/) by default; set LINT_NOCACHE=1 to force a full
# uncached sweep.
lint:
	$(GO) run ./cmd/nautilus-lint $(if $(LINT_NOCACHE),,-cache) ./...

# lint-fixtures re-runs the golden-fixture tests that pin every analyzer's
# exact diagnostics (positions + messages) over testdata/src/violations,
# plus the interprocedural call-graph/summary unit tests, the reaching-
# definitions value-flow tests (TestSSA*, reachdefs_test.go), and the
# parallel driver's determinism check.
lint-fixtures:
	$(GO) test ./internal/lint -run 'Golden|IgnoreAudit|RunSorted|RunTimed|CallGraph|Summary|Analyze|SelectAnalyzers|SSA' -count=1

# check is the full pre-merge gate: vet + build + the full analyzer
# suite (interprocedural summaries included) + the race detector over the
# concurrent planning, execution, observability, and storage layers (the
# core and exec test packages force at least two group slots in TestMain,
# so concurrent fused groups are exercised whatever the box's CPU count;
# the graph leg holds the shared-param first-use test; the core leg also
# runs the golden plan files), plus the perf-regression gate against the
# committed baseline (noise-aware ratio metrics; nonzero exit on
# regression). vet's asmdecl pass checks the assembly kernels' frames; the
# arm64 cross-build compiles the portable kernel bodies, the only path off
# amd64.
check:
	$(GO) vet ./...
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) run ./cmd/nautilus-lint -analyzers= ./...
	$(GO) test -race ./internal/exec/... ./internal/train/...
	$(GO) test -race ./internal/core/...
	$(GO) test -race ./internal/opt/...
	$(GO) test -race ./internal/tensor/... ./internal/graph/...
	$(GO) test -race ./internal/storage/... ./internal/obs/...
	$(GO) run ./cmd/nautilus-bench -exp obs,replan,calib,fusion,kernels,lint -tune-table TUNE_table.json -baseline BENCH_baseline.json

# bench runs the paper-table benchmarks at the root, the layer step
# benchmarks (BenchmarkDenseGeLUStep, BenchmarkAdapterStep: forward(train)
# + backward at BERT-mini shapes, ns per activated element) and the tensor
# kernels (BenchmarkMatMulConvShapes: the matmul family at conv-layer
# shapes with half-zero coefficients, in gflops), so a change to the
# activation path or the tile kernel has a number without a 15 s
# bench-e2e session.
bench:
	$(GO) test -bench=. -benchmem . ./internal/layers ./internal/tensor

# bench-e2e is the end-to-end benchmark BENCHMARK.json declares: real
# multi-cycle sessions on six workloads, every output checked bit for bit
# (bench/README.md; `go run ./bench -traced` adds the per-layer pass).
bench-e2e:
	$(GO) run ./bench

# trace-demo runs a small workload with tracing + metrics enabled, then
# asserts both artifacts parse (same checks as TestTraceDemo). Load
# demo.trace in chrome://tracing or ui.perfetto.dev.
trace-demo:
	$(GO) run ./cmd/nautilus-run -workload FTR-3 -cycles 1 -trace demo.trace -metrics demo_metrics.json
	$(GO) test -run TestTraceDemo -count=1 .

# bench-json measures observability overhead on the trainer hot loop
# (no tracer vs nil sink vs active sink), the incremental-replan savings
# after AddCandidates, the hot-path engine (parallel kernels + step
# arena), the lint suite's per-analyzer wall time, the trace-calibration
# conformance tightening, and the enum-vs-greedy fusion plan quality;
# -out . writes BENCH_obs.json + BENCH_replan.json + BENCH_kernels.json +
# BENCH_lint.json + BENCH_calib.json + BENCH_fusion.json (BENCH_<exp>.json).
bench-json:
	$(GO) run ./cmd/nautilus-bench -exp obs,replan,kernels,lint,calib,fusion -tune-table TUNE_table.json -out .

# bench-baseline rewrites the committed perf-regression baseline from a
# fresh run of the gated experiments. Run it after an intentional perf
# change, eyeball the diff, and commit the new BENCH_baseline.json.
bench-baseline:
	$(GO) run ./cmd/nautilus-bench -exp obs,replan,calib,fusion,kernels,lint -tune-table TUNE_table.json -write-baseline BENCH_baseline.json

# tune re-benchmarks every kernel shape class on this machine and
# rewrites the committed schedule table. Run it after kernel changes or
# on new hardware; check loads the table and hard-errors on a version
# mismatch, so regenerate + commit TUNE_table.json together with any
# table-format change.
tune:
	$(GO) run ./cmd/nautilus-bench -exp tune -tune-out TUNE_table.json
