package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nautilus/internal/obs"
	"nautilus/internal/tensor"
)

// tensorStoreMagic identifies materialized-output files.
const tensorStoreMagic = "NTS1"

// ErrClosed is returned by every TensorStore operation that touches a file
// or the directory once Close has run. A closed store stays closed: reopen
// the directory with NewTensorStore.
var ErrClosed = errors.New("storage: tensor store is closed")

// TensorStore persists materialized layer outputs on disk, one file per
// key (the producing expression's signature). Records append incrementally
// as new labeled data arrives; reads gather mini-batches of rows.
//
// File layout: magic, uint32 rank, rank×uint32 record dims, then float32
// record data in row-major order, little-endian. The record count is
// derived once per open of a key, from the header and the file size
// (whole records only); the store then keeps it beside the handle. An
// append lands at the counted end, so a torn partial record left by a
// crash is overwritten, not appended after.
//
// One open store owns its directory: the handles, headers and counts it
// keeps assume no other writer touches the files until Close.
type TensorStore struct {
	dir      string
	counters *Counters
	cache    *rowCache
	obs      *obs.Tracer

	mu     sync.Mutex
	files  map[string]*keyFile
	closed bool
}

// keyFile is one open key: its handle and what its header says. A file
// with no header yet has a nil shape and no records.
type keyFile struct {
	f        *os.File
	shape    []int // record shape
	recBytes int64 // byte size of one record
	count    int   // whole records stored
}

// rowOffset is the file offset of record r.
func (kf *keyFile) rowOffset(r int) int64 {
	return headerSize(len(kf.shape)) + int64(r)*kf.recBytes
}

// SetObs attaches an observability tracer: reads and writes emit spans
// with byte counts plus registry counters. nil detaches (the default).
func (s *TensorStore) SetObs(tr *obs.Tracer) {
	s.mu.Lock()
	s.obs = tr
	s.mu.Unlock()
}

// NewTensorStore opens (creating if needed) a store rooted at dir. counters
// may be nil.
func NewTensorStore(dir string, counters *Counters) (*TensorStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create store dir: %w", err)
	}
	return &TensorStore{dir: dir, counters: counters, files: map[string]*keyFile{}}, nil
}

// EnableCache attaches an LRU row cache of the given capacity, emulating
// the OS page cache: repeated epoch reads of materialized rows hit DRAM
// and only cold reads count as physical disk traffic.
func (s *TensorStore) EnableCache(maxBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = newRowCache(maxBytes)
}

// CacheStats returns cache hits and misses (zero when no cache attached).
func (s *TensorStore) CacheStats() (hits, misses int64) {
	s.mu.Lock()
	c := s.cache
	s.mu.Unlock()
	if c == nil {
		return 0, 0
	}
	return c.stats()
}

// Dir returns the store's root directory.
func (s *TensorStore) Dir() string { return s.dir }

func (s *TensorStore) path(key string) string {
	if strings.ContainsAny(key, "/\\") {
		panic(fmt.Sprintf("storage: invalid key %q", key))
	}
	return filepath.Join(s.dir, key+".nts")
}

// headerSize returns the byte size of a header with the given rank.
func headerSize(rank int) int64 { return int64(4 + 4 + 4*rank) }

// recordBytes is the byte size of one record of the given shape; false if
// a dimension is zero or does not fit a header word, or the size overflows.
func recordBytes(shape []int) (int64, bool) {
	n := int64(4)
	for _, d := range shape {
		if d <= 0 || d > math.MaxUint32 || n > math.MaxInt64/int64(d) {
			return 0, false
		}
		n *= int64(d)
	}
	return n, true
}

// readHeader returns the record shape and its byte size, or a nil shape if
// the file is empty. A record size that is zero or overflows is an error
// naming the key: no record could be counted or read.
func readHeader(f *os.File, key string) ([]int, int64, error) {
	var magic [4]byte
	n, err := f.ReadAt(magic[:], 0)
	if n == 0 {
		return nil, 0, nil // empty file: no header yet
	}
	if err != nil {
		return nil, 0, err
	}
	if string(magic[:]) != tensorStoreMagic {
		return nil, 0, fmt.Errorf("storage: bad magic %q", magic)
	}
	var rankBuf [4]byte
	if _, err := f.ReadAt(rankBuf[:], 4); err != nil {
		return nil, 0, err
	}
	rank := int(binary.LittleEndian.Uint32(rankBuf[:]))
	if rank < 0 || rank > 8 {
		return nil, 0, fmt.Errorf("storage: implausible rank %d", rank)
	}
	dims := make([]byte, 4*rank)
	if _, err := f.ReadAt(dims, 8); err != nil {
		return nil, 0, err
	}
	shape := make([]int, rank)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
	}
	recBytes, ok := recordBytes(shape)
	if !ok {
		return nil, 0, fmt.Errorf("storage: key %q: header record shape %v has a zero or overflowing size", key, shape)
	}
	return shape, recBytes, nil
}

// stored returns key's open file. The first call after an open reads the
// header and sizes the file once; later calls return what it found.
func (s *TensorStore) stored(key string) (*keyFile, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if kf := s.files[key]; kf != nil {
		return kf, nil
	}
	f, err := os.OpenFile(s.path(key), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %q: %w", key, err)
	}
	kf := &keyFile{f: f}
	if kf.shape, kf.recBytes, err = readHeader(f, key); err == nil && kf.shape != nil {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			kf.count = int((st.Size() - headerSize(len(kf.shape))) / kf.recBytes)
		}
	}
	if err != nil {
		_ = f.Close() // read-side close on the error path
		return nil, err
	}
	s.files[key] = kf
	return kf, nil
}

// drop closes key's handle and forgets its header and count.
func (s *TensorStore) drop(key string) {
	if kf := s.files[key]; kf != nil {
		_ = kf.f.Close() // the file is being deleted; close errors are moot
		delete(s.files, key)
	}
	if s.cache != nil {
		s.cache.invalidate(key)
	}
}

// Append writes the records of recs (shape [n, ...rec]) after the last
// whole record of key's file, creating it (and its header) on first use,
// and counts them once the write succeeds. The record shape must match
// previous appends.
func (s *TensorStore) Append(key string, recs *tensor.Tensor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.obs.Start("store/append", obs.Str("key", key), obs.Int("records", int64(recs.Dim(0))))
	// The span's wall time over the bytes written is one throughput sample
	// for the calibration fitter's write channel.
	var wroteBytes int64
	defer func() {
		if d := sp.End(); wroteBytes > 0 {
			s.obs.Samples().AddWrite(wroteBytes, d)
		}
	}()
	recShape := recs.Shape()[1:]
	recBytes, ok := recordBytes(recShape)
	if !ok {
		return fmt.Errorf("storage: append %q: records of shape %v have a zero or overflowing size", key, recShape)
	}
	kf, err := s.stored(key)
	if err != nil {
		return err
	}
	if kf.shape == nil {
		// Fresh file: write header.
		buf := make([]byte, headerSize(len(recShape)))
		copy(buf, tensorStoreMagic)
		binary.LittleEndian.PutUint32(buf[4:], uint32(len(recShape)))
		for i, d := range recShape {
			binary.LittleEndian.PutUint32(buf[8+4*i:], uint32(d))
		}
		if _, err := kf.f.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("storage: write header: %w", err)
		}
		s.counters.AddWrite(int64(len(buf)))
		kf.shape, kf.recBytes = append([]int(nil), recShape...), recBytes
	} else if !tensor.ShapeEq(kf.shape, recShape) {
		return fmt.Errorf("storage: key %q holds records of shape %v, appending %v", key, kf.shape, recShape)
	}
	buf := encodeFloats(recs.Data())
	if _, err := kf.f.WriteAt(buf, kf.rowOffset(kf.count)); err != nil {
		return fmt.Errorf("storage: append %q: %w", key, err)
	}
	kf.count += recs.Dim(0)
	s.counters.AddWrite(int64(len(buf)))
	wroteBytes = int64(len(buf))
	sp.Attr(obs.Int("bytes", int64(len(buf))))
	s.obs.Registry().Counter("store.append.bytes").Add(int64(len(buf)))
	return nil
}

// Count returns the number of records stored under key (0 if absent).
func (s *TensorStore) Count(key string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countLocked(key)
}

func (s *TensorStore) countLocked(key string) (int, error) {
	kf, err := s.stored(key)
	if err != nil {
		return 0, err
	}
	return kf.count, nil
}

// ReadRowsIn gathers the given record indices into a [len(idx), ...rec]
// tensor, the access pattern of mini-batch training over materialized
// features. The result is allocated from scope (nil falls back to the
// heap); the trainer's feed prefetcher passes its feed scope so
// materialized feeds participate in tensor recycling.
func (s *TensorStore) ReadRowsIn(key string, idx []int, scope *tensor.Scope) (*tensor.Tensor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.obs.Start("store/read", obs.Str("key", key), obs.Int("rows", int64(len(idx))))
	// Cold bytes over the call's wall time is one throughput sample for the
	// calibration fitter's read channel; fully cache-served calls carry no
	// disk signal and are skipped.
	var coldSample int64
	defer func() {
		if d := sp.End(); coldSample > 0 {
			s.obs.Samples().AddRead(coldSample, d)
		}
	}()
	kf, err := s.stored(key)
	if err != nil {
		return nil, err
	}
	if kf.shape == nil {
		return nil, fmt.Errorf("storage: key %q is empty", key)
	}
	// Rows are checked before anything is allocated: the header, not the
	// file, sizes the result.
	for _, r := range idx {
		if r < 0 || r >= kf.count {
			return nil, fmt.Errorf("storage: read %q row %d: outside the %d records stored", key, r, kf.count)
		}
	}
	recElems := int(kf.recBytes / 4)
	var dims [4]int // the shape stays on the stack up to rank 4
	outShape := append(append(dims[:0], len(idx)), kf.shape...)
	out := scope.Get(outShape...)
	var coldBytes int64
	for i, r := range idx {
		// Cold rows are read straight into their slot of the batch.
		dst := out.Data()[i*recElems : (i+1)*recElems]
		if s.cache != nil && s.cache.getInto(key, r, dst) {
			continue
		}
		if err := readFloats(kf.f, dst, kf.rowOffset(r)); err != nil {
			return nil, fmt.Errorf("storage: read %q row %d: %w", key, r, err)
		}
		coldBytes += kf.recBytes
		if s.cache != nil {
			s.cache.putCopy(key, r, dst)
		}
	}
	if coldBytes > 0 {
		s.counters.AddRead(coldBytes)
		coldSample = coldBytes
	}
	if s.obs.Enabled() {
		coldRows := int(coldBytes / kf.recBytes)
		sp.Attr(obs.Int("cold_bytes", coldBytes))
		reg := s.obs.Registry()
		reg.Counter("store.read.cold_bytes").Add(coldBytes)
		reg.Counter("store.read.cache_hits").Add(int64(len(idx) - coldRows))
		reg.Counter("store.read.cache_misses").Add(int64(coldRows))
	}
	return out, nil
}

// Keys lists every key with a file in the store, sorted.
func (s *TensorStore) Keys() ([]string, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: list store dir: %w", err)
	}
	var keys []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".nts") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(e.Name(), ".nts"))
	}
	sort.Strings(keys)
	return keys, nil
}

// GC deletes every stored file whose key fails keep, returning the deleted
// keys (sorted) and the bytes freed. It is the reconciliation primitive for
// evolving workloads: when a replan drops signatures from the materialized
// set V, only their artifacts are collected and everything still in V stays
// on disk.
func (s *TensorStore) GC(keep func(key string) bool) (deleted []string, freed int64, err error) {
	keys, err := s.Keys()
	if err != nil {
		return nil, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.obs.Start("store/gc")
	defer sp.End()
	for _, key := range keys {
		if keep(key) {
			continue
		}
		if st, serr := os.Stat(s.path(key)); serr == nil {
			freed += st.Size()
		}
		s.drop(key)
		if rerr := os.Remove(s.path(key)); rerr != nil && !os.IsNotExist(rerr) {
			return deleted, freed, fmt.Errorf("storage: gc %q: %w", key, rerr)
		}
		deleted = append(deleted, key)
	}
	sp.Attr(obs.Int("deleted", int64(len(deleted))), obs.Int("freed_bytes", freed))
	return deleted, freed, nil
}

// Close releases all open file handles. Operations on the store fail with
// ErrClosed from here on; a second Close is a no-op.
func (s *TensorStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for k, kf := range s.files {
		if err := kf.f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, k)
	}
	return first
}
