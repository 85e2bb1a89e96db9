package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"nautilus/internal/obs"
	"nautilus/internal/tensor"
)

// rows returns the record indices [lo, hi).
func rows(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

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
	got, err := s.ReadRowsIn("k1", rows(0, 5), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(a, 0) || !tensor.ShapeEq(got.Shape(), a.Shape()) {
		t.Errorf("read-back %v differs from written %v", got.Shape(), a.Shape())
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
	got, err := s.ReadRowsIn("k", rows(3, 5), nil)
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
	got, err := s.ReadRowsIn("k", []int{3, 1}, nil)
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
	if _, err := s.ReadRowsIn("k", rows(0, 10), nil); err != nil {
		t.Fatal(err)
	}
	if c.BytesRead() != 320 {
		t.Errorf("bytes read = %d, want 320", c.BytesRead())
	}
	if st, err := os.Stat(filepath.Join(s.Dir(), "k.nts")); err != nil || st.Size() != headerSize(1)+320 {
		t.Errorf("file size = %v (%v), want header %d + 320 data bytes", st, err, headerSize(1))
	}
}

// A negative row index is an error naming the key and row. Unchecked, row
// -1 of a rank-1 key of width 2 read the header's rank and dim words back
// as two floats.
func TestTensorStoreReadRowsRejectsNegativeRow(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRowsIn("k", []int{1, -1}, nil)
	if err == nil || !strings.Contains(err.Error(), `"k" row -1`) {
		t.Errorf("ReadRowsIn row -1 = %v, %v; want an error naming key and row", got, err)
	}
}

// gcKey deletes key through GC, the store's one deleter, keeping every
// other key, and returns the keys GC reports deleted.
func gcKey(t *testing.T, s *TensorStore, key string) []string {
	t.Helper()
	deleted, _, err := s.GC(func(k string) bool { return k != key })
	if err != nil {
		t.Fatal(err)
	}
	return deleted
}

func TestTensorStoreDelete(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	if got := gcKey(t, s, "k"); !slices.Equal(got, []string{"k"}) {
		t.Errorf("GC deleted %v, want [k]", got)
	}
	if n, _ := s.Count("k"); n != 0 {
		t.Errorf("count after delete = %d", n)
	}
	if got := gcKey(t, s, "never_existed"); len(got) != 0 {
		t.Errorf("deleting a missing key should be a no-op, GC deleted %v", got)
	}
}

func TestTensorStoreEmptyKeyCount(t *testing.T) {
	s, _ := newStore(t)
	if n, err := s.Count("fresh"); err != nil || n != 0 {
		t.Errorf("fresh key count = %d (%v)", n, err)
	}
	if _, err := s.ReadRowsIn("fresh2", []int{0}, nil); err == nil {
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
		"Append":     func() error { return s.Append("k", tensor.New(1, 3)) },
		"AppendNew":  func() error { return s.Append("fresh", tensor.New(1, 3)) },
		"Count":      func() error { _, err := s.Count("k"); return err },
		"ReadRowsIn": func() error { _, err := s.ReadRowsIn("k", []int{0}, nil); return err },
		"Keys":       func() error { _, err := s.Keys(); return err },
		"GC":         func() error { _, _, err := s.GC(func(string) bool { return false }); return err },
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
		t.Errorf("GC on a closed store removed the artifact: %v", err)
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
					_, err = s.ReadRowsIn("k", []int{i % 4}, nil)
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
		got, err := s.ReadRowsIn(key, rows(cnt-n, cnt), nil)
		if err != nil {
			return false
		}
		return got.AllClose(x, 0)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// storeFile is a hand-made store file: the magic, the header words (rank,
// then the dims) and data zero bytes.
func storeFile(words []uint32, data int) []byte {
	raw := []byte(tensorStoreMagic)
	for _, w := range words {
		raw = binary.LittleEndian.AppendUint32(raw, w)
	}
	return append(raw, make([]byte, data)...)
}

// malformedHeaders are store files whose header no stored record fits:
// the record count Count must report (-1: an error) and text the errors
// must carry.
var malformedHeaders = []struct {
	name    string
	raw     []byte
	count   int
	errText string
}{
	{"zero dim", storeFile([]uint32{1, 0}, 16), -1, "zero or overflowing"},
	{"zero inner dim", storeFile([]uint32{2, 3, 0}, 16), -1, "zero or overflowing"},
	{"overflowing dims", storeFile([]uint32{2, 0xFFFFFFFF, 0xFFFFFFFF}, 16), -1, "zero or overflowing"},
	{"overflowing rank 4", storeFile([]uint32{4, 1 << 16, 1 << 16, 1 << 16, 1 << 16}, 16), -1, "zero or overflowing"},
	{"huge record, no data", storeFile([]uint32{3, 1 << 16, 1 << 16, 1 << 16}, 16), 0, "outside the 0 records"},
}

// A header no record fits is an error from Count and ReadRowsIn naming the
// key, or, when the record size is real but no record is stored, a count of
// zero and a refused read. The zero dimension made Count divide by zero; the
// overflowing and huge records made ReadRowsIn panic in makeslice. Append
// refuses to write a zero-size record's header in the first place.
func TestTensorStoreRejectsMalformedHeaders(t *testing.T) {
	for _, c := range malformedHeaders {
		t.Run(c.name, func(t *testing.T) {
			s, _ := newStore(t)
			if err := os.WriteFile(filepath.Join(s.Dir(), "bad.nts"), c.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			n, err := s.Count("bad")
			if c.count < 0 {
				if err == nil || !strings.Contains(err.Error(), c.errText) || !strings.Contains(err.Error(), `"bad"`) {
					t.Errorf("Count = %d, %v; want an error naming the key and containing %q", n, err, c.errText)
				}
			} else if err != nil || n != c.count {
				t.Errorf("Count = %d, %v; want %d", n, err, c.count)
			}
			if _, err := s.ReadRowsIn("bad", []int{0}, nil); err == nil || !strings.Contains(err.Error(), c.errText) || !strings.Contains(err.Error(), `"bad"`) {
				t.Errorf("ReadRowsIn row 0 = %v; want an error naming the key and containing %q", err, c.errText)
			}
		})
	}
	s, _ := newStore(t)
	if err := s.Append("k", tensor.New(3, 0)); err == nil || !strings.Contains(err.Error(), "zero or overflowing") {
		t.Errorf("Append of [3, 0] records = %v, want it refused", err)
	}
	if n, err := s.Count("k"); err != nil || n != 0 {
		t.Errorf("Count after a refused Append = %d, %v; want 0, nil", n, err)
	}
}

// FuzzTensorStoreHeader feeds arbitrary bytes to the store as one key's
// file. The property: Count and ReadRowsIn both fail, or Count is n, rows
// 0..n-1 read back exactly the file's floats and row n is refused. Never a
// panic. The committed corpus (testdata/fuzz/FuzzTensorStoreHeader) holds
// valid files of rank 0–3, a partial record, truncated and foreign headers
// and the files of TestTensorStoreRejectsMalformedHeaders; plain go test
// replays it.
func FuzzTensorStoreHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "k.nts"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewTensorStore(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		n, err := s.Count("k")
		if err != nil {
			if _, rerr := s.ReadRowsIn("k", []int{0}, nil); rerr == nil {
				t.Fatalf("Count fails (%v) but row 0 reads", err)
			}
			return
		}
		if _, err := s.ReadRowsIn("k", []int{n}, nil); err == nil {
			t.Fatalf("Count is %d but row %d reads", n, n)
		}
		if n == 0 {
			return
		}
		got, err := s.ReadRowsIn("k", rows(0, n), nil)
		if err != nil {
			t.Fatalf("Count is %d but rows 0..%d fail: %v", n, n-1, err)
		}
		base := 8 + 4*int(binary.LittleEndian.Uint32(raw[4:]))
		for i, v := range got.Data() {
			if want := binary.LittleEndian.Uint32(raw[base+4*i:]); math.Float32bits(v) != want {
				t.Fatalf("element %d = %#x, file holds %#x", i, math.Float32bits(v), want)
			}
		}
	})
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
	if _, err := s.ReadRowsIn("k", rows(0, 5), nil); err != nil {
		t.Fatal(err)
	}
	cold := c.BytesRead()
	if cold != 5*8*4 {
		t.Fatalf("cold bytes = %d, want %d", cold, 5*8*4)
	}
	// Warm re-read: all hits, no new disk bytes, values identical.
	got, err := s.ReadRowsIn("k", rows(0, 5), nil)
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
	if _, err := s.ReadRowsIn("k", rows(5, 17), nil); err != nil {
		t.Fatal(err)
	}
	before := c.BytesRead()
	if _, err := s.ReadRowsIn("k", []int{0}, nil); err != nil {
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
	if _, err := s.ReadRowsIn("k", rows(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	gcKey(t, s, "k")
	// Re-create the key with different data; reads must not see stale
	// cache entries.
	y := tensor.New(2, 4)
	y.Fill(9)
	if err := s.Append("k", y); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadRowsIn("k", rows(0, 2), nil)
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
	if _, err := s.ReadRowsIn("k", rows(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRowsIn("k", rows(0, 1), nil); err != nil {
		t.Fatal(err)
	}
	hits, _ := s.CacheStats()
	if hits != 0 {
		t.Error("oversize rows must not be cached")
	}
}

// A torn append (a crash mid-write) leaves a partial record behind. The
// count rounds it away, and the next append lands at the counted end, over
// the torn bytes: appended after them, every later row read shifted.
func TestTensorStoreTornTailOverwritten(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Append("k", tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(s.Dir(), "k.nts"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewTensorStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n, err := re.Count("k"); err != nil || n != 1 {
		t.Fatalf("count over a torn tail = %d (%v), want 1", n, err)
	}
	if err := re.Append("k", tensor.FromSlice([]float32{10, 11, 12, 13}, 1, 4)); err != nil {
		t.Fatal(err)
	}
	got, err := re.ReadRowsIn("k", rows(0, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{1, 2, 3, 4, 10, 11, 12, 13}; sameBits(got.Data(), want) >= 0 {
		t.Errorf("rows after a torn append = %v, want %v", got.Data(), want)
	}
}

// A batch ReadRowsIn returns is the caller's: writing into it, whether its
// rows came from disk or from the cache, changes nothing the next read of
// those rows returns.
func TestTensorStoreReadsDoNotAliasCache(t *testing.T) {
	s, _ := newStore(t)
	s.EnableCache(1 << 20)
	x := tensor.FromSlice([]float32{0, 1, 2, 3, 4, 5, 6, 7}, 4, 2)
	if err := s.Append("k", x); err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "cached", "cached again"} {
		got, err := s.ReadRowsIn("k", rows(0, 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		if sameBits(got.Data(), x.Data()) >= 0 {
			t.Fatalf("%s read = %v, want %v", pass, got.Data(), x.Data())
		}
		got.Fill(-1)
	}
	if hits, misses := s.CacheStats(); hits != 8 || misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 8/4", hits, misses)
	}
}

// A cache a few rows too small for the working set recycles its victims'
// slices, across keys of two row widths: every row still reads back as
// appended, and hits and misses follow a plain LRU over row bytes.
func TestRowCacheRecyclesVictims(t *testing.T) {
	s, _ := newStore(t)
	const capRows, wide, narrow = 4, 5, 3
	s.EnableCache(capRows * wide * 4)
	widths := map[string]int{"a": narrow, "b": wide}
	data := map[string]*tensor.Tensor{}
	for key, w := range widths {
		x := tensor.New(6, w)
		for i := range x.Data() {
			x.Data()[i] = float32(100*w + i)
		}
		if err := s.Append(key, x); err != nil {
			t.Fatal(err)
		}
		data[key] = x
	}
	// The reference LRU: front = most recent, sized in bytes.
	type ref struct {
		key string
		row int
	}
	var lru []ref
	var used, wantHits, wantMisses int
	touch := func(key string, row int) {
		for i, e := range lru {
			if e == (ref{key, row}) {
				wantHits++
				lru = append(append([]ref{e}, lru[:i]...), lru[i+1:]...)
				return
			}
		}
		wantMisses++
		bytes := 4 * widths[key]
		for used+bytes > capRows*wide*4 {
			used -= 4 * widths[lru[len(lru)-1].key]
			lru = lru[:len(lru)-1]
		}
		lru = append([]ref{{key, row}}, lru...)
		used += bytes
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 200; step++ {
		key := []string{"a", "b"}[rng.Intn(2)]
		idx := make([]int, 1+rng.Intn(3))
		for i := range idx {
			idx[i] = rng.Intn(6)
		}
		got, err := s.ReadRowsIn(key, idx, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range idx {
			touch(key, r)
			if j := sameBits(got.Row(i), data[key].Row(r)); j >= 0 {
				t.Fatalf("step %d: %s row %d = %v, want %v", step, key, r, got.Row(i), data[key].Row(r))
			}
		}
		got.Fill(-1)
	}
	if hits, misses := s.CacheStats(); hits != int64(wantHits) || misses != int64(wantMisses) {
		t.Errorf("hits/misses = %d/%d, the reference LRU's %d/%d", hits, misses, wantHits, wantMisses)
	}
}

// GC forgets a deleted key's header and count with its file: the key's next
// append may carry another record shape, and Count and ReadRowsIn follow
// the new file.
func TestTensorStoreDeleteThenNewShape(t *testing.T) {
	s, _ := newStore(t)
	s.EnableCache(1 << 20)
	if err := s.Append("k", tensor.New(2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRowsIn("k", rows(0, 2), nil); err != nil {
		t.Fatal(err)
	}
	gcKey(t, s, "k")
	y := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 3, 5)
	if err := s.Append("k", y); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Count("k"); err != nil || n != 3 {
		t.Errorf("count after delete and re-append = %d (%v), want 3", n, err)
	}
	got, err := s.ReadRowsIn("k", rows(0, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEq(got.Shape(), []int{3, 5}) || sameBits(got.Data(), y.Data()) >= 0 {
		t.Errorf("read after re-append = %v %v, want %v %v", got.Shape(), got.Data(), y.Shape(), y.Data())
	}
}

// The counts a store keeps per open key agree with what a reopened store
// derives from the files, after appends, a GC and Close.
func TestTensorStoreCountsSurviveGCAndReopen(t *testing.T) {
	s, _ := newStore(t)
	for _, a := range []struct {
		key  string
		rows int
	}{{"a", 3}, {"b", 5}, {"c", 2}, {"a", 2}} {
		if err := s.Append(a.key, tensor.New(a.rows, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.GC(func(key string) bool { return key != "b" }); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 5, "b": 0, "c": 2}
	for key, n := range want {
		if got, err := s.Count(key); err != nil || got != n {
			t.Errorf("after GC: count %q = %d (%v), want %d", key, got, err, n)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := NewTensorStore(s.Dir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for key, n := range want {
		if got, err := re.Count(key); err != nil || got != n {
			t.Errorf("reopened: count %q = %d (%v), want %d", key, got, err, n)
		}
	}
}
