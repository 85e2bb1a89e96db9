package tune

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nautilus/internal/tensor"
)

func TestBucket(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {-3, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {300, 9}, {1024, 11},
	}
	for _, c := range cases {
		if got := Bucket(c.n); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func testEntry() Entry {
	return Entry{
		Op:           string(tensor.OpMatMul),
		DimBuckets:   [3]int{Bucket(256), Bucket(256), Bucket(256)},
		WorkerBucket: Bucket(1),
		Schedule:     tensor.Schedule{TileM: 4, TileK: 256, Workers: 1},
		Case:         "matmul_256",
		BaseNsOp:     100, BestNsOp: 25, Speedup: 4,
	}
}

func TestTableLookup(t *testing.T) {
	var tbl Table
	tbl.Add(testEntry())

	// Hit: same bucket, not necessarily the same dims.
	sch, ok := tbl.Schedule(tensor.OpMatMul, [3]int{300, 280, 256}, 1)
	if !ok || sch.TileM != 4 {
		t.Fatalf("lookup = %+v, %v; want tuned schedule, true", sch, ok)
	}
	// Miss: different shape class.
	if _, ok := tbl.Schedule(tensor.OpMatMul, [3]int{64, 64, 64}, 1); ok {
		t.Fatal("lookup hit for an untuned shape class")
	}
	// Miss: different op.
	if _, ok := tbl.Schedule(tensor.OpMatMulBT, [3]int{256, 256, 256}, 1); ok {
		t.Fatal("lookup hit for an untuned op")
	}
	// Miss: different worker bucket.
	if _, ok := tbl.Schedule(tensor.OpMatMul, [3]int{256, 256, 256}, 8); ok {
		t.Fatal("lookup hit for an untuned worker cap")
	}
	// Later entries override earlier ones for the same key.
	e := testEntry()
	e.Schedule = tensor.Schedule{TileM: 1, Workers: 1}
	tbl.Add(e)
	if sch, _ := tbl.Schedule(tensor.OpMatMul, [3]int{256, 256, 256}, 1); sch.TileM != 1 {
		t.Fatalf("override lookup = %+v, want TileM 1", sch)
	}
}

// TestTableCoverageReportsWorkerBucketMiss pins the report for a table
// tuned under one worker cap and used under another: every lookup misses
// (which schedule fires is unchanged), and Coverage says so.
func TestTableCoverageReportsWorkerBucketMiss(t *testing.T) {
	tbl := &Table{Workers: 1}
	tbl.Add(testEntry())
	e := testEntry()
	e.Op = string(tensor.OpMatMulBT)
	tbl.Add(e)
	if n := tbl.Applicable(1); n != 2 {
		t.Errorf("Applicable(1) = %d, want 2", n)
	}
	if _, ok := tbl.Schedule(tensor.OpMatMul, [3]int{256, 256, 256}, 2); ok {
		t.Error("lookup under cap 2 hit a table tuned for one worker")
	}
	if n := tbl.Applicable(2); n != 0 {
		t.Errorf("Applicable(2) = %d, want 0", n)
	}
	// Caps 2 and 3 share a bucket.
	e.WorkerBucket = Bucket(2)
	tbl.Add(e)
	if n := tbl.Applicable(3); n != 1 {
		t.Errorf("Applicable(3) = %d, want 1", n)
	}
	want := "table tuned for 1 workers, active cap 4, 0 of 3 entries applicable"
	if got := tbl.Coverage(4); got != want {
		t.Errorf("Coverage(4) = %q, want %q", got, want)
	}
}

func TestTableSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	tbl := &Table{Source: "test", Workers: 1}
	tbl.Add(testEntry())
	if err := Save(path, tbl); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != TableVersion || got.Source != "test" || len(got.Entries) != 1 {
		t.Fatalf("loaded table = %+v", got)
	}
	if sch, ok := got.Schedule(tensor.OpMatMul, [3]int{256, 256, 256}, 1); !ok || sch.TileK != 256 {
		t.Fatalf("loaded lookup = %+v, %v", sch, ok)
	}
}

func TestTableLoadRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "table.json")
	tbl := &Table{}
	tbl.Add(testEntry())
	if err := Save(path, tbl); err != nil {
		t.Fatal(err)
	}
	// Corrupt the version in place.
	raw := `{"version": 999, "entries": [{"op": "matmul"}]}`
	if err := writeFile(path, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted a version-mismatched table")
	}
	if err := writeFile(path, `{"version": 1, "entries": []}`); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("Load accepted an empty table")
	}
}

func TestTuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning benchmarks in -short mode")
	}
	// A sentinel source must survive the tuning run untouched.
	sentinel := &Table{}
	sentinel.Add(testEntry())
	tensor.SetScheduleSource(sentinel)
	t.Cleanup(func() { tensor.SetScheduleSource(nil) })

	a := tensor.New(24, 24)
	b := tensor.New(24, 24)
	cases := []Case{{
		Name: "matmul_24", Op: tensor.OpMatMul, Dims: [3]int{24, 24, 24},
		Run: func() { tensor.MatMul(a, b) },
	}}
	tbl, err := Tune(cases, Options{Workers: 1, Source: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Entries) != 1 {
		t.Fatalf("tuned table has %d entries, want 1", len(tbl.Entries))
	}
	e := tbl.Entries[0]
	if e.BaseNsOp <= 0 || e.BestNsOp <= 0 || e.Speedup <= 0 {
		t.Fatalf("entry timings not populated: %+v", e)
	}
	if e.Schedule.Workers != 1 {
		t.Fatalf("tuned under one worker but chose %+v", e.Schedule)
	}
	if _, ok := tbl.Schedule(tensor.OpMatMul, [3]int{24, 24, 24}, 1); !ok {
		t.Fatal("tuned entry does not resolve for its own case")
	}
	if src := tensor.CurrentScheduleSource(); src != tensor.ScheduleSource(sentinel) {
		t.Fatalf("Tune did not restore the installed schedule source: %v", src)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// checkSchedulesRun runs MatMul, MatMulBT and MatMulAT on one small fixed
// shape under every distinct schedule of tbl at two workers, and fails
// unless each output equals the kernel's with no table, bit for bit.
func checkSchedulesRun(t *testing.T, tbl *Table) {
	t.Helper()
	tensor.SetMaxWorkers(2)
	t.Cleanup(func() {
		tensor.SetMaxWorkers(0)
		tensor.SetScheduleSource(nil)
	})
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 10, 24, 18
	a, b := tensor.RandNormal(rng, 1, m, k), tensor.RandNormal(rng, 1, k, n)
	bt, at := tensor.RandNormal(rng, 1, n, k), tensor.RandNormal(rng, 1, k, m)
	ops := []struct {
		name string
		run  func() *tensor.Tensor
	}{
		{"MatMul", func() *tensor.Tensor { return tensor.MatMul(a, b) }},
		{"MatMulBT", func() *tensor.Tensor { return tensor.MatMulBT(a, bt) }},
		{"MatMulAT", func() *tensor.Tensor { return tensor.MatMulAT(at, b) }},
	}
	tensor.SetScheduleSource(nil)
	want := make([]uint64, len(ops))
	for i, op := range ops {
		want[i] = op.run().Fingerprint()
	}
	seen := map[tensor.Schedule]bool{}
	for i, e := range tbl.Entries {
		if seen[e.Schedule] {
			continue
		}
		seen[e.Schedule] = true
		tensor.SetScheduleSource(forceSchedule{e.Schedule})
		for j, op := range ops {
			if op.run().Fingerprint() != want[j] {
				t.Fatalf("entry %d (%s): %s under %s differs from the kernel with no table", i, e.Op, op.name, e.Schedule)
			}
		}
	}
}

// corruptTables are hand-made tables Load must reject or run safely. Every
// body is also a seed of FuzzLoadTuneTable (testdata/fuzz). A tile_m of
// MaxInt used to load and then crash the process: a worker's chunk starting
// past row 0 overflowed i0+tm into a negative slice bound.
var corruptTables = []struct {
	name, body string
	err        string // "" means: loads, and every schedule runs bit-identically
}{
	{"huge_tile_m", `{"version":1,"entries":[{"op":"matmul","dim_buckets":[7,7,7],"worker_bucket":2,"schedule":{"tile_m":9223372036854775807,"workers":2,"serial_below":1}}]}`, ""},
	{"huge_tile_k", `{"version":1,"entries":[{"op":"matmul_bt","dim_buckets":[7,7,7],"worker_bucket":2,"schedule":{"tile_m":3,"tile_k":9223372036854775807,"workers":2,"serial_below":1}}]}`, ""},
	{"huge_workers", `{"version":1,"entries":[{"op":"matmul_at","dim_buckets":[7,7,7],"worker_bucket":2,"schedule":{"workers":9223372036854775807,"serial_below":1}}]}`, ""},
	{"naive_kernel", `{"version":1,"entries":[{"op":"gap","dim_buckets":[5,11,4],"worker_bucket":1,"schedule":{"kernel":"naive","workers":1}}]}`, ""},
	{"negative_tile_m", `{"version":1,"entries":[{"op":"matmul","dim_buckets":[7,7,7],"worker_bucket":2,"schedule":{"tile_m":-4,"workers":2}}]}`, "entry 0 (matmul)"},
	{"negative_tile_k", `{"version":1,"entries":[{"op":"matmul","schedule":{"workers":1}},{"op":"matmul_bt","schedule":{"tile_k":-1}}]}`, "entry 1 (matmul_bt)"},
	{"negative_workers", `{"version":1,"entries":[{"op":"matmul_at","schedule":{"workers":-2}}]}`, "entry 0 (matmul_at)"},
	{"negative_serial_below", `{"version":1,"entries":[{"op":"im2col","schedule":{"serial_below":-1}}]}`, "entry 0 (im2col)"},
	{"wrong_version", `{"version":2,"entries":[{"op":"matmul"}]}`, "version 2"},
	{"no_entries", `{"version":1,"entries":[]}`, "no entries"},
	{"not_json", `{"version":1,"entries":[{"op":"matmul","schedule":`, "parse"},
	{"overflowing_tile", `{"version":1,"entries":[{"op":"matmul","schedule":{"tile_m":9223372036854775808}}]}`, "parse"},
}

func TestLoadRejectsOrRunsCorruptTables(t *testing.T) {
	for _, tc := range corruptTables {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "table.json")
			if err := writeFile(path, tc.body); err != nil {
				t.Fatal(err)
			}
			tbl, err := Load(path)
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Load error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkSchedulesRun(t, tbl)
		})
	}
}

// TestCommittedTuneTableLoads pins what ./bench reads: the repo's
// TUNE_table.json, whose two "kernel": "naive" entries name a variant that
// no longer exists, still loads (encoding/json ignores the unknown key) and
// every schedule in it runs bit-identically. A stricter Load would break
// ./bench here first. The table was tuned at one worker, so under a cap of
// 2 none of it applies; a regenerated table with entries at cap 2 would
// change the kernels the benchmark dispatches.
func TestCommittedTuneTableLoads(t *testing.T) {
	const path = "../../../TUNE_table.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"kernel": "naive"`); n != 2 {
		t.Errorf(`committed table has %d "kernel": "naive" entries, want the 2 it was tuned with`, n)
	}
	tbl, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(tbl.Coverage(2))
	if n := tbl.Applicable(2); n != 0 {
		t.Errorf("%d of %d entries apply at cap 2, want 0: %s", n, len(tbl.Entries), tbl.Coverage(2))
	}
	checkSchedulesRun(t, tbl)
}

// FuzzLoadTuneTable: any file either fails to load, or every schedule in it
// runs the matmul family at two workers bit-identically to no table. Never
// a panic. The committed corpus (testdata/fuzz/FuzzLoadTuneTable) holds the
// repo's TUNE_table.json and the corruptTables bodies; plain go test
// replays it.
func FuzzLoadTuneTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "table.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		tbl, err := Load(path)
		if err != nil {
			return
		}
		checkSchedulesRun(t, tbl)
	})
}
