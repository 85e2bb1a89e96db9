package tune

import (
	"os"
	"path/filepath"
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
