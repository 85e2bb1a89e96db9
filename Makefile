GO ?= go

.PHONY: build test check check-exhaustive fuzz bench bench-e2e trace-demo tune

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full pre-merge gate: vet + gofmt + build + the race detector
# over the concurrent planning, execution, observability, and storage
# layers (the core and exec test packages force at least two group slots
# in TestMain, so concurrent fused groups are exercised whatever the box's
# CPU count; the graph leg holds the shared-param first-use test; the
# core leg also runs the golden plan files), plus a short pass of the
# end-to-end ledger (all six ./bench workloads, every output checked bit
# for bit; nonzero exit on any failed check or operation — timing claims
# are made from alternating parent/change pairs, bench/README.md, not
# from this step).
# The single-threaded planning packages run without the race detector in
# one leg (~20 s on 2 vCPUs): the plan verifier with its solver and fuser
# agreement property (TestSolversAndFusersAgree), the max-flow
# differential test, the multi-model merge and the profiler. A second plain
# leg (~15 s, nearly all of it the experiments package) covers the layer
# above the planner: the labeler, the Table 3 workload builds, the
# experiment drivers with the mini-scale runner, the model zoo and the
# simulated clock. A third plain leg (~2 s) runs the packages no other leg
# names: the root package (TestTraceDemo and the optimizer benchmarks'
# test file), bench/'s unit tests (TestContract,
# TestStagedMatchesFitAndCurrentPractice, ...), the MILP solver and
# nautilus-run's flag rule for -compare.
# The seeded leg runs the seeded-regression corpus (internal/lint holds
# only the corpus): each lock, goroutine, arena, chunk, span, shared-layer,
# footprint or dropped-write-error bug it seeds must fail its named test
# under go test -race -cpu 2 (applied through -overlay) and pass without
# it, and every seed must still apply once, name a declared test and
# appear in DESIGN.md.
# vet's asmdecl pass checks the assembly kernels' frames; the arm64
# cross-build compiles the portable kernel bodies, the only path off amd64,
# and the arm64 vet type-checks the !amd64 test files beside them. The
# s390x vet type-checks the storage codec on a big-endian target, where it
# swaps each word instead of moving floats as raw bytes.
# The tensor/graph/layers race leg holds LayerNorm's row fan-out
# (TestLayerNormForwardMatchesScalar, TestLayerNormGradMatchesScalar fan
# out at a cap of 2). Under GODEBUG=cpu.fma=off math.Exp leaves its FMA
# path, so that leg proves the vector transcendentals' init self-check
# stands them down at both widths (TestVecMathVerdicts asserts the ymm and
# the zmm verdict are off) — the zmm verdict gates the softmax slab kernel
# too, so softmax and the attention scores run their scalar rows there —
# and every bit-identity test passes on the scalar bodies.
check:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./internal/storage/...
	$(GO) test -race ./internal/exec/... ./internal/train/...
	$(GO) test -race ./internal/core/...
	$(GO) test -race ./internal/opt/...
	$(GO) test ./internal/verify/... ./internal/mincut/... ./internal/mmg/... ./internal/profile/...
	$(GO) test ./internal/data/... ./internal/workloads/... ./internal/experiments/... ./internal/models/... ./internal/simclock/...
	$(GO) test . ./bench ./internal/milp ./cmd/...
	$(GO) test -race ./internal/tensor/... ./internal/graph/... ./internal/layers/...
	$(GO) test -race ./internal/storage/... ./internal/obs/...
	$(GO) test -tags seeded -run '^TestSeededRegressions(Dynamic)?$$' -count=1 ./internal/lint
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./internal/tensor ./internal/layers
	$(GO) run ./bench -seconds 3

# check-exhaustive compares the vector GELU, tanh and exp-sub kernels with
# the scalar definitions on all 2^32 float32 inputs each: the activation rows'
# y and act′ (the one keep the rows store), the exp-sub rows' outputs and
# sums, and the float64 lanes behind both, at every width this host runs —
# the ymm kernels and, with AVX-512F, the zmm GELU kernels and the softmax
# slab kernel's exp lanes (softmaxExpAsm, which shares their code) each
# called directly as well as through the public rows (two goroutines). It
# is not part of check; run it after any edit to vecmath_amd64.s.
check-exhaustive:
	$(GO) test ./internal/tensor -run Exhaustive -exhaustive -count=1 -v -timeout 60m

# fuzz runs the decoders' fuzz targets for 30 s each on two workers:
# FuzzLoadParamsInto, the checkpoint reader (property: an error that leaves
# the model untouched, or every listed param restored bit-exactly),
# FuzzTensorStoreHeader, a store file's header (property: Count and
# ReadRowsIn both fail, or every counted row reads back the file's floats),
# FuzzLoadCalibration, a calibration file (property: an error, or
# hardware whose LoadFLOPs/Seconds/IOSeconds are finite and non-negative),
# and FuzzLoadTuneTable, a kernel schedule table (property: an error, or
# every schedule in it runs the matmul family at two workers bit-identically
# to no table). Never a panic. It is not part of check: plain go test
# replays only the committed seed corpora under
# internal/{storage,profile,tensor/tune}/testdata/fuzz/. A failing input is
# written there too; commit it with the fix.
fuzz:
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzLoadParamsInto$$' -fuzztime 30s -parallel 2
	$(GO) test ./internal/storage -run '^$$' -fuzz '^FuzzTensorStoreHeader$$' -fuzztime 30s -parallel 2
	$(GO) test ./internal/profile -run '^$$' -fuzz '^FuzzLoadCalibration$$' -fuzztime 30s -parallel 2
	$(GO) test ./internal/tensor/tune -run '^$$' -fuzz '^FuzzLoadTuneTable$$' -fuzztime 30s -parallel 2

# bench runs the optimizer benchmarks at the root (solve time, B&B vs MILP,
# backoff factor, Figure 5 estimate; the paper's tables and figures are
# `nautilus-bench -exp <name>`), the whole-step engine benchmarks
# (internal/graph: BenchmarkMiniBERTForwardBackward — one mini BERT training
# step in a recycled step scope, ns/op and allocs/op, the closest number to
# a trainer step — and BenchmarkMiniBERTForwardOnly), the layer step
# benchmarks (BenchmarkDenseGeLUStep, BenchmarkAdapterStep: forward(train)
# + backward at BERT-mini shapes, ns per activated element;
# BenchmarkAttentionStep: one BERT-mini self-attention layer's step in a
# recycled scope, ns/op and allocs/op; BenchmarkResidualBlockStep: one
# ResNet-mini residual block's step, block 1 and block 3 at batch 32, in a
# recycled scope, ns/op and allocs/op; BenchmarkChannelAffine: the
# per-channel affine's forward and its backward at ResNet-mini shapes,
# channels 8/16/32/64, ns per element;
# BenchmarkActSweepGELU beside BenchmarkGeluRowScalar: the bias+gelu+gelu′
# epilogue alone through the row kernel and through the scalar definition,
# at 128x3072 and 32x64), the tensor kernels (BenchmarkSoftmaxRows: 512x128
# through the ymm exp row and 384x12, an attention layer's scores, through
# the slab kernel; BenchmarkLayerNormRows: LayerNorm's rows at 384x32,
# train and eval forward and the backward; BenchmarkMatMulConvShapes: the matmul family at
# conv-layer shapes with half-zero coefficients, in gflops, all through the
# dense tile body since their b operands are finite;
# BenchmarkEltwiseAdd256: serial vs fanned out; BenchmarkScopeGet: one warm
# step-scope allocation, ns/op and allocs/op, which must read 0), so a
# change to the activation path, the allocator or the tile
# kernel has a number without a 15 s bench-e2e session, and the
# observability-overhead benchmarks (internal/exec:
# BenchmarkTrainGroupNoObs/ActiveObs over one trainer loop and
# BenchmarkTrainStepPooled/Unpooled; internal/obs: span and counter cost),
# and the optimizer's own (internal/opt: BenchmarkBuildGroupPair — pricing
# one paper-scale FUSE OPT trial pair on a merged view, the ns/op and
# allocs/op behind plan_zoo's opt.fuse_s — BenchmarkFuseModels12, BenchmarkOptimizeMaterialization12Models,
# BenchmarkSolveReusePlanBERTBase, BenchmarkEnergyMinCut on one reused
# Energy, BenchmarkWorkloadCost12Models — one MAT OPT objective evaluation
# over twelve models, one cost-only min-cut per structural class (three) —
# and BenchmarkEstimatePeakMemoryFused — the
# Figure 5 replay of a four-member paper-scale group).
bench:
	$(GO) test -bench=. -benchmem . ./internal/graph ./internal/layers ./internal/tensor ./internal/exec ./internal/obs ./internal/opt

# bench-e2e is the end-to-end benchmark BENCHMARK.json declares: real
# multi-cycle sessions on six workloads, every output checked bit for bit
# (bench/README.md; `go run ./bench -traced` adds the per-layer pass).
bench-e2e:
	$(GO) run ./bench

# trace-demo runs a small workload with the trace, the telemetry report and
# its live JSONL stream enabled, then asserts the artifacts parse and agree
# (same checks as TestTraceDemo). Load demo.trace in chrome://tracing or
# ui.perfetto.dev.
trace-demo:
	$(GO) run ./cmd/nautilus-run -workload FTR-3 -cycles 1 -trace demo.trace -metrics demo_metrics.json -live demo_live.jsonl
	$(GO) test -run TestTraceDemo -count=1 .

# tune re-benchmarks every kernel shape class on this machine and
# rewrites the committed schedule table. Run it after kernel changes or
# on new hardware; go run ./bench (check's last step, bench-e2e) loads
# TUNE_table.json through tune.Load and hard-errors on a version mismatch,
# so regenerate + commit the table together with any table-format change.
tune:
	$(GO) run ./cmd/nautilus-bench -exp tune -tune-out TUNE_table.json
