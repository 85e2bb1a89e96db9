package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/obs"
	"nautilus/internal/tensor"
)

func newStore(t *testing.T) (*TensorStore, *Counters) {
	t.Helper()
	c := &Counters{}
	s, err := NewTensorStore(t.TempDir(), c)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, c
}

func TestTensorStoreAppendReadRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandNormal(rng, 1, 5, 3, 2)
	if err := s.Append("k1", a); err != nil {
		t.Fatal(err)
	}
	n, err := s.Count("k1")
	if err != nil || n != 5 {
		t.Fatalf("count = %d (%v), want 5", n, err)
	}
	got, err := s.ReadRange("k1", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(a, 0) {
		t.Error("read-back differs from written data")
	}
	shape, err := s.RecordShape("k1")
	if err != nil || !tensor.ShapeEq(shape, []int{3, 2}) {
		t.Errorf("record shape = %v (%v)", shape, err)
	}
}

func TestTensorStoreIncrementalAppend(t *testing.T) {
	s, _ := newStore(t)
	rng := rand.New(rand.NewSource(2))
	a := tensor.RandNormal(rng, 1, 3, 4)
	b := tensor.RandNormal(rng, 1, 2, 4)
	if err := s.Append("k", a); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("k", b); err != nil {
		t.Fatal(err)
	}
	n, _ := s.Count("k")
	if n != 5 {
		t.Fatalf("count = %d, want 5", n)
	}
	// The appended records land after the first batch.
	got, err := s.ReadRange("k", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(b, 0) {
		t.Error("appended records differ")
	}
}

func TestTensorStoreShapeMismatchRejected(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("k", tensor.New(2, 4)); err == nil {
		t.Error("mismatched record shape must be rejected")
	}
}

func TestTensorStoreReadRowsGather(t *testing.T) {
	s, _ := newStore(t)
	x := tensor.FromSlice([]float32{0, 0, 1, 1, 2, 2, 3, 3}, 4, 2)
	if err := s.Append("k", x); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRows("k", []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 3 || got.At(1, 0) != 1 {
		t.Errorf("gather = %v", got.Data())
	}
}

func TestTensorStoreCountersAndSizes(t *testing.T) {
	s, c := newStore(t)
	x := tensor.New(10, 8) // 320 data bytes
	if err := s.Append("k", x); err != nil {
		t.Fatal(err)
	}
	if c.BytesWritten() < 320 {
		t.Errorf("bytes written = %d, want >= 320", c.BytesWritten())
	}
	if _, err := s.ReadRange("k", 0, 10); err != nil {
		t.Fatal(err)
	}
	if c.BytesRead() != 320 {
		t.Errorf("bytes read = %d, want 320", c.BytesRead())
	}
	if s.SizeBytes("k") < 320 || s.TotalBytes() < 320 {
		t.Error("size accounting wrong")
	}
	c.Reset()
	if c.BytesRead() != 0 || c.Writes() != 0 {
		t.Error("reset failed")
	}
}

func TestTensorStoreDelete(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count("k"); n != 0 {
		t.Errorf("count after delete = %d", n)
	}
	if err := s.Delete("never_existed"); err != nil {
		t.Errorf("deleting a missing key should be a no-op, got %v", err)
	}
}

func TestTensorStoreEmptyKeyCount(t *testing.T) {
	s, _ := newStore(t)
	if n, err := s.Count("fresh"); err != nil || n != 0 {
		t.Errorf("fresh key count = %d (%v)", n, err)
	}
	if _, err := s.ReadRows("fresh2", []int{0}); err == nil {
		t.Error("reading an empty key should error")
	}
}

// A closed store refuses every operation that would touch a file or the
// directory with ErrClosed — it used to reopen handles silently and leak
// them — creates nothing on disk, and closes a second time as a no-op.
func TestTensorStoreClosedRefusesOperations(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ops := map[string]func() error{
		"Append":      func() error { return s.Append("k", tensor.New(1, 3)) },
		"AppendNew":   func() error { return s.Append("fresh", tensor.New(1, 3)) },
		"Count":       func() error { _, err := s.Count("k"); return err },
		"RecordShape": func() error { _, err := s.RecordShape("k"); return err },
		"ReadRows":    func() error { _, err := s.ReadRows("k", []int{0}); return err },
		"ReadRowsIn":  func() error { _, err := s.ReadRowsIn("k", []int{0}, nil); return err },
		"ReadRange":   func() error { _, err := s.ReadRange("k", 0, 1); return err },
		"Delete":      func() error { return s.Delete("k") },
		"Keys":        func() error { _, err := s.Keys(); return err },
		"GC":          func() error { _, _, err := s.GC(func(string) bool { return false }); return err },
	}
	for name, op := range ops {
		if err := op(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed store: err = %v, want ErrClosed", name, err)
		}
	}
	if len(s.files) != 0 {
		t.Errorf("closed store holds %d open handles", len(s.files))
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "fresh.nts")); !os.IsNotExist(err) {
		t.Errorf("Append on a closed store created a file (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "k.nts")); err != nil {
		t.Errorf("Delete/GC on a closed store removed the artifact: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
	// The directory is intact: a new store over it serves the rows.
	re, err := NewTensorStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := re.Count("k"); err != nil || n != 2 {
		t.Errorf("reopened count = %d (%v), want 2", n, err)
	}
}

// Close racing readers and appenders: every operation either completes or
// reports ErrClosed, and none reopens a handle behind Close.
func TestTensorStoreCloseRacesOperations(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(4, 3)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var err error
				if w%2 == 0 {
					_, err = s.ReadRows("k", []int{i % 4})
				} else {
					err = s.Append(fmt.Sprintf("w%d", w), tensor.New(1, 3))
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if len(s.files) != 0 {
		t.Errorf("%d handles reopened behind Close", len(s.files))
	}
}

// buildTestModel builds a small frozen-trunk + trainable-head model.
func buildTestModel() *graph.Model {
	m := graph.NewModel("ckpt-test")
	in := m.AddInput("in", 4)
	d1 := m.AddNode("d1", layers.NewDense(4, 6, layers.ActTanh, 11), in)
	_ = d1
	d2 := m.AddNode("d2", layers.NewDense(6, 3, layers.ActNone, 12), d1)
	d2.Trainable = true
	m.SetOutputs(d2)
	return m
}

func TestCheckpointFullRoundTrip(t *testing.T) {
	m := buildTestModel()
	// Mutate a weight so restored values differ from seed init.
	m.Node("d2").Layer.Params()[0].Tensor().Data()[0] = 42
	path := filepath.Join(t.TempDir(), "model.nckp")
	c := &Counters{}
	if err := SaveModel(path, m, CheckpointOptions{}, c); err != nil {
		t.Fatal(err)
	}
	if c.BytesWritten() == 0 {
		t.Error("checkpoint write not metered")
	}
	restored, err := LoadModel(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumNodes() != m.NumNodes() {
		t.Fatalf("restored %d nodes, want %d", restored.NumNodes(), m.NumNodes())
	}
	if got := restored.Node("d2").Layer.Params()[0].Tensor().Data()[0]; got != 42 {
		t.Errorf("restored weight = %v, want 42", got)
	}
	if !restored.Node("d2").Trainable || restored.Node("d1").Trainable {
		t.Error("trainability flags lost")
	}
	// Behavioural equivalence: same forward outputs.
	x := tensor.FromSlice([]float32{1, -1, 0.5, 2}, 1, 4)
	t1, _ := m.Forward(map[string]*tensor.Tensor{"in": x}, false)
	t2, _ := restored.Forward(map[string]*tensor.Tensor{"in": x}, false)
	if !t1.Output(m.Outputs[0]).AllClose(t2.Output(restored.Outputs[0]), 1e-6) {
		t.Error("restored model computes different outputs")
	}
}

func TestCheckpointTrainableOnly(t *testing.T) {
	m := buildTestModel()
	path := filepath.Join(t.TempDir(), "trainable.nckp")
	if err := SaveModel(path, m, CheckpointOptions{TrainableOnly: true}, nil); err != nil {
		t.Fatal(err)
	}
	// Full load must refuse.
	if _, err := LoadModel(path, nil); err == nil {
		t.Error("loading a trainable-only checkpoint as full model should error")
	}
	// Restoring into a rebuilt model works and only touches the head.
	m.Node("d2").Layer.Params()[0].Tensor().Data()[0] = 7
	if err := SaveModel(path, m, CheckpointOptions{TrainableOnly: true}, nil); err != nil {
		t.Fatal(err)
	}
	fresh := buildTestModel()
	if err := LoadParamsInto(path, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Node("d2").Layer.Params()[0].Tensor().Data()[0]; got != 7 {
		t.Errorf("restored trainable weight = %v, want 7", got)
	}
}

func TestCheckpointSizeEstimates(t *testing.T) {
	m := buildTestModel()
	full := CheckpointSizeBytes(m, CheckpointOptions{})
	trainOnly := CheckpointSizeBytes(m, CheckpointOptions{TrainableOnly: true})
	if trainOnly >= full {
		t.Errorf("trainable-only size %d should be < full %d", trainOnly, full)
	}
	// d2: 6*3+3 params = 21 floats = 84 bytes + header.
	if trainOnly != 4096+84 {
		t.Errorf("trainable-only = %d, want %d", trainOnly, 4096+84)
	}
}

func TestCheckpointCompositeModelRoundTrip(t *testing.T) {
	// Composite layers (transformer block) serialize via their config and
	// restore with identical weights thanks to seed-derived params.
	m := graph.NewModel("composite")
	in := m.AddInput("ids", 4, 8)
	blk := m.AddNode("blk", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 4, Dim: 8, Heads: 2, FFN: 16, Seed: 5,
	}), in)
	_ = blk
	head := m.AddNode("head", layers.NewDense(8, 2, layers.ActNone, 6), blk)
	head.Trainable = true
	m.SetOutputs(head)

	path := filepath.Join(t.TempDir(), "composite.nckp")
	if err := SaveModel(path, m, CheckpointOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadModel(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := tensor.RandNormal(rng, 1, 2, 4, 8)
	t1, _ := m.Forward(map[string]*tensor.Tensor{"ids": x}, false)
	t2, _ := restored.Forward(map[string]*tensor.Tensor{"ids": x}, false)
	if !t1.Output(m.Outputs[0]).AllClose(t2.Output(restored.Outputs[0]), 1e-5) {
		t.Error("restored composite model computes different outputs")
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(path, []byte("not a checkpoint at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path, nil); err == nil {
		t.Error("garbage file should fail to load")
	}
}

func writeFile(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}

// TestTensorStoreQuickRoundTrip: random shapes and values survive an
// append/read cycle bit-exactly.
func TestTensorStoreQuickRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		key := fmt.Sprintf("k%d", seed&0xffff)
		n := 1 + rng.Intn(6)
		shape := append([]int{n}, 1+rng.Intn(4), 1+rng.Intn(4))
		x := tensor.RandNormal(rng, 2, shape...)
		if err := s.Append(key, x); err != nil {
			return false
		}
		cnt, err := s.Count(key)
		if err != nil || cnt < n {
			return false
		}
		got, err := s.ReadRange(key, cnt-n, cnt)
		if err != nil {
			return false
		}
		return got.AllClose(x, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestRowCacheHitsAndEviction(t *testing.T) {
	s, c := newStore(t)
	tr := obs.New(nil)
	s.SetObs(tr)
	s.EnableCache(10 * 8 * 4) // 10 rows of 8 floats
	x := tensor.New(20, 8)
	for i := range x.Data() {
		x.Data()[i] = float32(i)
	}
	if err := s.Append("k", x); err != nil {
		t.Fatal(err)
	}
	// Cold read of rows 0-4: all misses, disk bytes counted.
	if _, err := s.ReadRange("k", 0, 5); err != nil {
		t.Fatal(err)
	}
	cold := c.BytesRead()
	if cold != 5*8*4 {
		t.Fatalf("cold bytes = %d, want %d", cold, 5*8*4)
	}
	// Warm re-read: all hits, no new disk bytes, values identical.
	got, err := s.ReadRange("k", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesRead() != cold {
		t.Errorf("warm read hit disk: %d vs %d", c.BytesRead(), cold)
	}
	if got.At(2, 3) != x.At(2, 3) {
		t.Error("cached values differ")
	}
	hits, misses := s.CacheStats()
	if hits != 5 || misses != 5 {
		t.Errorf("hits/misses = %d/%d, want 5/5", hits, misses)
	}
	// Reading 12 more rows overflows the 10-row capacity: earliest rows
	// evict; a re-read of row 0 must miss again.
	if _, err := s.ReadRange("k", 5, 17); err != nil {
		t.Fatal(err)
	}
	before := c.BytesRead()
	if _, err := s.ReadRows("k", []int{0}); err != nil {
		t.Fatal(err)
	}
	if c.BytesRead() == before {
		t.Error("evicted row should re-read from disk")
	}
	// The registry's store.* series are the same account, read live: cold
	// bytes are the disk counter's, row hits and misses the cache's, and
	// appended bytes what was written less the one file header.
	reg := tr.Registry()
	hits, misses = s.CacheStats()
	for name, want := range map[string]int64{
		"store.read.cold_bytes":   c.BytesRead(),
		"store.read.cache_hits":   hits,
		"store.read.cache_misses": misses,
		"store.append.bytes":      int64(4 * x.Len()),
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestRowCacheInvalidatedOnDelete(t *testing.T) {
	s, _ := newStore(t)
	s.EnableCache(1 << 20)
	if err := s.Append("k", tensor.New(2, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange("k", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	// Re-create the key with different data; reads must not see stale
	// cache entries.
	y := tensor.New(2, 4)
	y.Fill(9)
	if err := s.Append("k", y); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRange("k", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 9 {
		t.Error("stale cache entry survived delete")
	}
}

func TestRowCacheOversizeRowBypasses(t *testing.T) {
	s, _ := newStore(t)
	s.EnableCache(8) // tiny: a 4-float row (16B) cannot fit
	if err := s.Append("k", tensor.New(1, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange("k", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRange("k", 0, 1); err != nil {
		t.Fatal(err)
	}
	hits, _ := s.CacheStats()
	if hits != 0 {
		t.Error("oversize rows must not be cached")
	}
}
