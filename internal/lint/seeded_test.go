// Package lint holds the seeded-regression corpus and nothing else: test
// files only. Each row re-introduces one bug — most of them bugs this repo
// once had — into its real file, and names the test that must catch it.
// The package keeps its name from the static-analysis suite the corpus
// used to justify; DESIGN.md "Seeded regressions" explains the corpus.
package lint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seededRegression re-introduces one bug into a real package: old is
// replaced by new in file. test names a test of the package (Name or
// Name/subtest) that fails with the seed under go test -race -cpu 2 and
// passes without it (TestSeededRegressionsDynamic). A hang row seeds a
// deadlock: its seeded run must end in go test's timeout panic.
type seededRegression struct {
	name      string
	dir, file string // package directory (module-relative) and file in it
	old, new  string
	test      string
	hang      bool
}

// seededRegressions is the corpus (DESIGN.md "Yield" prints this table;
// TestSeededRegressions holds the two equal).
var seededRegressions = []seededRegression{
	{
		name: "Conv2D.Forward writes its receiver",
		dir:  "internal/layers", file: "conv.go",
		old:  "\tg := l.geom(s[1:])\n\tvar cols *tensor.Tensor\n",
		new:  "\tl.InC = s[3]\n\tg := l.geom(s[1:])\n\tvar cols *tensor.Tensor\n",
		test: "TestSharedLayersConcurrentSteps",
	},
	{
		name: "Trainer prefetch drain not deferred (PR 5)",
		dir:  "internal/exec", file: "trainer.go",
		old: "\t\tdefer func() {\n\t\t\tfor fed := range nextFeeds {\n\t\t\t\tfed.scope.Release()\n\t\t\t}\n\t\t}()\n" +
			"\t\tfor bi, idx := range batches {\n",
		new:  "\t\tfor bi, idx := range batches {\n",
		test: "TestTrainGroupBadLossGradientReleasesPipeline",
	},
	{
		name: "Materializer chunk drain not deferred (PR 5)",
		dir:  "internal/exec", file: "materializer.go",
		old: "\tdefer func() {\n\t\tfor c := range chunks {\n\t\t\tc.scope.Release()\n\t\t}\n\t}()\n" +
			"\tfor c := range chunks {\n",
		new:  "\tfor c := range chunks {\n",
		test: "TestMaterializerErrorReleasesChunkScopes",
	},
	{
		name: "Exporter serve goroutine launched without wg.Add (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\t\te.wg.Add(1)\n\t\tgo func() {\n",
		new:  "\t\tgo func() {\n",
		test: "TestExporterHTTPEndpoints",
	},
	{
		name: "Exporter snapshotLoop launched without wg.Add (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\te.wg.Add(1)\n\tgo e.snapshotLoop()\n",
		new:  "\tgo e.snapshotLoop()\n",
		test: "TestExporterSnapshotsUnderLoad",
	},
	{
		name: "Exporter.Close does not wg.Wait (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\te.wg.Wait()\n\te.mu.Lock()\n",
		new:  "\te.mu.Lock()\n", // the loop's last write and Close both hold e.mu, so -race is silent
		test: "TestExporterCloseWritesFinalSnapshot",
	},
	{
		name: "Exporter.snapshotLoop never calls wg.Done (PR 7)",
		dir:  "internal/obs", file: "export.go",
		old:  "\tdefer e.wg.Done()\n\tticker := ",
		new:  "\tticker := ",
		test: "TestExporterSnapshotsUnderLoad",
		hang: true,
	},
	{
		name: "Span.SetTrack writes track without the tracer mutex (PR 20)",
		dir:  "internal/obs", file: "obs.go",
		old:  "\t\ts.t.mu.Lock()\n\t\ts.track = track\n\t\ts.t.mu.Unlock()\n",
		new:  "\t\ts.track = track\n",
		test: "TestSetTrackDuringSnapshots",
	},
	{
		name: "Span.End returns early holding t.mu",
		dir:  "internal/obs", file: "obs.go",
		old:  "\t\td := s.dur\n\t\tt.mu.Unlock()\n\t\treturn d\n",
		new:  "\t\treturn s.dur\n",
		test: "TestEndIdempotent",
		hang: true,
	},
	{
		name: "Arena.Scope pool hit returns holding a.mu",
		dir:  "internal/tensor", file: "arena.go",
		old:  "\t\ts.idle = false\n\t\ta.mu.Unlock()\n\t\treturn s\n",
		new:  "\t\ts.idle = false\n\t\treturn s\n",
		test: "TestScopeHandoffOverChannel",
		hang: true,
	},
	{
		name: "Span.Track calls SetTrack under the mutex both take",
		dir:  "internal/obs", file: "obs.go",
		old:  "\tdefer s.t.mu.Unlock()\n\treturn s.track\n",
		new:  "\tdefer s.t.mu.Unlock()\n\treturn s.SetTrack(s.track).track\n",
		test: "TestSetTrackDuringSnapshots",
		hang: true,
	},
	{
		name: "TensorStore.SetObs never unlocks",
		dir:  "internal/storage", file: "tensorstore.go",
		old:  "\ts.obs = tr\n\ts.mu.Unlock()\n",
		new:  "\ts.obs = tr\n",
		test: "TestRowCacheHitsAndEviction",
		hang: true,
	},
	{
		name: "Trainer validation scope released before scoring",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tw := float64(len(idx)) / float64(vn)\n",
		new:  "\t\t\tw := float64(len(idx)) / float64(vn)\n\t\t\tstep.Release()\n",
		test: "TestArenaTrainingBitIdentical/nautilus",
	},
	{
		name: "Trainer step scope recycled before the optimizer step",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tfor _, b := range branches {\n\t\t\t\tfor j, k := range b.at {\n",
		new:  "\t\t\tstep.Recycle()\n\t\t\tfor _, b := range branches {\n\t\t\t\tfor j, k := range b.at {\n",
		test: "TestArenaTrainingBitIdentical/nautilus",
	},
	{
		name: "Materializer chunk scope released before Append",
		dir:  "internal/exec", file: "materializer.go",
		old:  "\t\tfor _, node := range nodes {\n\t\t\tif err := mz.store.Append(",
		new:  "\t\tc.scope.Release()\n\t\tfor _, node := range nodes {\n\t\t\tif err := mz.store.Append(",
		test: "TestArenaTrainingBitIdentical/mat_all",
	},
	{
		name: "Tape frees a forward activation one step before its last use",
		dir:  "internal/graph", file: "program.go",
		old: "func (p *Program) retireAt(s int) int32 { return p.live.LastUse[s] }\n",
		new: "func (p *Program) retireAt(s int) int32 {\n\tif last := p.live.LastUse[s]; int32(s) < p.live.F && last > int32(s) {\n" +
			"\t\treturn last - 1\n\t}\n\treturn p.live.LastUse[s]\n}\n",
		test: "TestTapePeakMatchesLivenessReplay",
	},
	{
		name: "Tape drops the alias rule: an identity Activation's output outlives its freed input",
		dir:  "internal/graph", file: "exec.go",
		old:  "\t\t\t\tif tensor.SameBuffer(out, in[j]) {\n",
		new:  "\t\t\t\tif false && tensor.SameBuffer(out, in[j]) {\n",
		test: "TestTapePeakMatchesLivenessReplay",
	},
	{
		name: "Tape keeps backward state where no backward step runs",
		dir:  "internal/graph", file: "exec.go",
		old:  "\t\t\ttrain := t.train && p.live.Bwd[i] >= 0\n",
		new:  "\t\t\ttrain := t.train\n",
		test: "TestFrozenDenseKeepsNoBackwardState",
	},
	{
		name: "Attention chunks share a scratch slot: a chunk size parallelFor does not cut",
		dir:  "internal/tensor", file: "attention.go",
		old:  "\tchunk := (n + workers - 1) / workers\n",
		new:  "\tchunk := n/workers + 1\n",
		test: "TestAttentionMatchesPerHeadChain",
	},
	{
		name: "Tile kernel runs dense over a non-finite b",
		dir:  "internal/tensor", file: "simd_amd64.go",
		old:  "\treturn len(b) == 0 || finiteAsm(&b[0], len(b))\n",
		new:  "\treturn true\n",
		test: "TestMatMulFamilyLoneZero",
	},
	{
		name: "Attention ds slab reused without clear",
		dir:  "internal/tensor", file: "attention.go",
		old:  "\t\t\tclear(ds)\n",
		new:  "",
		test: "TestAttentionMatchesPerHeadChain",
	},
	{
		name: "Tape adopts a gradient aliasing gradOut",
		dir:  "internal/graph", file: "exec.go",
		old:  "\t\tif own && !adopted && t.grads[q] == nil && tensor.SameBuffer(d, g) {\n",
		new:  "\t\tif own && t.grads[q] == nil && tensor.SameBuffer(d, g) {\n",
		test: "TestTapeAdoptsOnlyFreshGradients",
	},
	{
		name: "Tape donates an input with another live alias",
		dir:  "internal/graph", file: "exec.go",
		old:  "\treturn t.alloc.Owns(t.acts[q]) && t.refs[o] == 1 && p.kerns[o] != nil\n",
		new:  "\treturn t.alloc.Owns(t.acts[q]) && p.kerns[o] != nil\n",
		test: "TestTapePeakMatchesLivenessReplay",
	},
	{
		name: "Splice ignores the outer node's Trainable flag",
		dir:  "internal/graph", file: "program.go",
		old:  "p.splice(inner, args, trainable && n.Trainable)",
		new:  "p.splice(inner, args, trainable)",
		test: "TestFrozenBlockTakesNoParamGrads",
	},
	{
		name: "A Block's trainable params ignore the outer node's Trainable flag",
		dir:  "internal/graph", file: "model.go",
		old:  "\tif n.Frozen() {\n\t\treturn nil\n\t}\n\tif b, ok := n.Layer.(Block); ok {\n\t\treturn b.Inner().TrainableParams()\n\t}\n",
		new:  "\tif b, ok := n.Layer.(Block); ok {\n\t\treturn b.Inner().TrainableParams()\n\t}\n\tif n.Frozen() {\n\t\treturn nil\n\t}\n",
		test: "TestTrainingRuleAgrees",
	},
	{
		name: "Eval-mode epilogue allocates a fresh output",
		dir:  "internal/layers", file: "activation.go",
		old:  "\tif act == ActNone || act == ActReLU || !train {\n",
		new:  "\tif act == ActNone || act == ActReLU {\n",
		test: "TestDenseForwardScopeTensors",
	},
	{
		name: "ChannelAffine declares it reads no input",
		dir:  "internal/layers", file: "norm.go",
		old:  "func (l *ChannelAffine) BackwardReads() (inputs, output bool) { return true, false }\n",
		new:  "func (l *ChannelAffine) BackwardReads() (inputs, output bool) { return false, false }\n",
		test: "TestFusedLayersMatchOracle",
	},
	{
		name: "Pointwise path taken for a padded 1×1 conv",
		dir:  "internal/layers", file: "conv.go",
		old:  "\treturn l.KH == 1 && l.KW == 1 && l.StrideH == 1 && l.StrideW == 1 && l.PadH == 0 && l.PadW == 0\n",
		new:  "\treturn l.KH == 1 && l.KW == 1 && l.StrideH == 1 && l.StrideW == 1\n",
		test: "TestFusedLayersMatchOracle",
	},
	{
		name: "Trainer seeds the shuffle from the wall clock",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\trng := rand.New(rand.NewSource(t.Seed))\n",
		new:  "\trng := rand.New(rand.NewSource(time.Now().UnixNano()))\n",
		test: "TestArenaTrainingBitIdentical/nautilus",
	},
	{
		name: "Exporter drops a snapshot write error",
		dir:  "internal/obs", file: "export.go",
		old:  "\t\te.err = e.enc.Encode(snap)\n",
		new:  "\t\t_ = e.enc.Encode(snap)\n",
		test: "TestExporterFullDiskFailsClose",
	},
	{
		name: "Activation epilogue output allocated outside the step arena",
		dir:  "internal/layers", file: "activation.go",
		old:  "\tout := tensor.NewFrom(a, a.Shape()...)\n",
		new:  "\tout := tensor.New(a.Shape()...)\n",
		test: "TestDenseForwardScopeTensors",
	},
	{
		name: "Trainer validation span not ended on a feed error",
		dir:  "internal/exec", file: "trainer.go",
		old:  "\t\t\tif err != nil {\n\t\t\t\tvs.End()\n\t\t\t\treturn nil, err\n\t\t\t}\n\t\t\tvb := ",
		new:  "\t\t\tif err != nil {\n\t\t\t\treturn nil, err\n\t\t\t}\n\t\t\tvb := ",
		test: "TestTrainGroupValidationFeedErrorEndsSpans",
	},
	{
		name: "LayerNorm row mean hoisted out of the fan-out callback",
		dir:  "internal/tensor", file: "rows.go",
		old: "\tparallelFor(Schedule{}, rows, work, func(lo, hi int) {\n" +
			"\t\to, xs := out[lo*d:hi*d], x[lo*d:hi*d]\n",
		new: "\tvar o, xs []float32\n\tparallelFor(Schedule{}, rows, work, func(lo, hi int) {\n" +
			"\t\to, xs = out[lo*d:hi*d], x[lo*d:hi*d]\n",
		test: "TestLayerNormForwardMatchesScalar",
	},
	{
		name: "Softmax slab kernel's sum chain seeded from the previous block",
		dir:  "internal/tensor", file: "vecmath_amd64.s",
		old:  "\tVPXORQ Z17, Z17, Z17\n",
		new:  "",
		test: "TestSoftmaxRowsMatchesScalar",
	},
	{
		name: "Telemetry.Close drops the -metrics write error",
		dir:  "internal/obs", file: "file.go",
		old:  "\t\t\terr = errors.Join(writeIndented(f, t.Tracer.Report()), f.Close())\n",
		new:  "\t\t\t_ = writeIndented(f, t.Tracer.Report())\n\t\t\terr = f.Close()\n",
		test: "TestTelemetryFullDiskFailsClose",
	},
	{
		name: "Append does not advance the key's count",
		dir:  "internal/storage", file: "tensorstore.go",
		old:  "\tkf.count += recs.Dim(0)\n",
		new:  "",
		test: "TestTensorStoreIncrementalAppend",
	},
	{
		name: "putCopy keeps the caller's slice",
		dir:  "internal/storage", file: "cache.go",
		old:  "\te.data = append(e.data[:0], src...)\n",
		new:  "\te.data = src\n",
		test: "TestTensorStoreReadsDoNotAliasCache",
	},
	{
		name: "MAT class weight is the representative's epochs, not the class's sum",
		dir:  "internal/opt", file: "matopt.go",
		old:  "\t\t\ts.weight = append(s.weight, 0)\n\t\t}\n\t\ts.weight[k] += int64(it.Epochs)\n",
		new:  "\t\t\ts.weight = append(s.weight, int64(it.Epochs))\n\t\t}\n",
		test: "TestClassPricingMatchesPerItem/fixtures",
	},
	{
		name: "FUSE class key omits s_mem",
		dir:  "internal/opt", file: "view.go",
		old:  "\t\tb = binary.AppendVarint(b, lp.MemBytes)\n",
		new:  "",
		test: "TestClassPricingMatchesPerItem/fixtures",
	},
}

// TestSeededRegressions is the corpus's static leg, plain go test: each
// row's old text still occurs exactly once in its committed file (a
// refactor that moves the code fails the row instead of retiring it
// silently), its test is still declared in its package, and DESIGN.md
// "Yield" prints every row.
func TestSeededRegressions(t *testing.T) {
	root := moduleRoot(t)
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range seededRegressions {
		t.Run(row.name, func(t *testing.T) {
			dir := filepath.Join(root, filepath.FromSlash(row.dir))
			b, err := os.ReadFile(filepath.Join(dir, row.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(b), row.old); n != 1 {
				t.Errorf("old text matches %s/%s %d times, want exactly once — the seed has rotted", row.dir, row.file, n)
			}
			top, _, _ := strings.Cut(row.test, "/")
			if !declaresTest(t, dir, top) {
				t.Errorf("no test file of %s declares %s — point the row at the test that now guards it", row.dir, top)
			}
			line := fmt.Sprintf("| %s | `%s/%s` | `%s` |", row.name, row.dir, row.file, row.test)
			if !strings.Contains(string(design), line) {
				t.Errorf("DESIGN.md \"Yield\" lacks the row\n%s", line)
			}
		})
	}
}

// moduleRoot is the nearest directory above the working directory that
// holds go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the working directory")
		}
		dir = parent
	}
}

// declaresTest reports whether a _test.go file in dir declares test name.
func declaresTest(t *testing.T, dir, name string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte("\nfunc "+name+"(t *testing.T) {")) {
			return true
		}
	}
	return false
}
