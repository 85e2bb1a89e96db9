package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"nautilus/internal/storage"
	"nautilus/internal/tensor"
)

// store_evolve drives storage.TensorStore directly, the way
// exec.Materializer (chunked appends of each cycle's new rows) and
// exec.Trainer (shuffled mini-batch gathers, every key, every epoch) do. At
// mini scale the training workloads move too little through the store for
// it to show; here it is all the work.
const (
	storeKeys       = 4    // live artifacts, read every batch
	storeRowFloats  = 4096 // 16 KB rows
	storeCycles     = 8
	storeDeltaRows  = 160 // rows appended to every key each cycle
	storeChunkRows  = 64  // Materializer.ChunkSize
	storeBatchRows  = 32
	storeEpochs     = 3
	storeOrphanKey  = "orphan" // written in cycle 1, collected mid-run
	storeFinalRows  = storeCycles * storeDeltaRows
	storeRowBytes   = 4 * storeRowFloats
	storeCacheBytes = storeKeys * storeFinalRows * storeRowBytes / 2
)

// The row cache holds half of the final working set: early cycles fit and
// hit, late cycles thrash, and the reopen after the mid-run GC starts cold.

// fillRow writes row `row` of key `key` and returns its checksum. The
// content is a cheap function of (seed, key, row), so a read can be checked
// without keeping the data.
func fillRow(dst []float32, seed int64, key, row int) uint64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(key+1)<<40 ^ uint64(row+1)
	var sum uint64
	for j := range dst {
		x = x*6364136223846793005 + 1442695040888963407
		dst[j] = float32(x>>40) / (1 << 24)
		sum = sum*31 + uint64(math.Float32bits(dst[j]))
	}
	return sum
}

// rowSum recomputes fillRow's checksum from stored values.
func rowSum(vals []float32) uint64 {
	var sum uint64
	for _, v := range vals {
		sum = sum*31 + uint64(math.Float32bits(v))
	}
	return sum
}

func storeKeyName(k int) string {
	if k == storeKeys {
		return storeOrphanKey
	}
	return fmt.Sprintf("artifact%d", k)
}

// storeEvolveSession appends and reads through storeCycles cycles.
// session_s and the cycle times count only time inside store calls: row
// generation and checking are the benchmark's own work.
func storeEvolveSession(e *env, rec *recorder) (res *sessionResult, err error) {
	res = &sessionResult{layer: map[string]float64{}}
	counters := &storage.Counters{}
	var dir string
	var store *storage.TensorStore
	open := func() (*storage.TensorStore, error) {
		s, err := storage.NewTensorStore(filepath.Join(dir, "store"), counters)
		if err != nil {
			return nil, err
		}
		s.EnableCache(storeCacheBytes)
		return s, nil
	}
	// Set-up makes the inputs: the work directory, the open store and the
	// checksum of every row the session will write.
	expected := make([][]uint64, storeKeys+1)
	res.setupS, err = timed(func() (err error) {
		if dir, err = e.workDir(); err != nil {
			return err
		}
		row := make([]float32, storeRowFloats)
		for k := range expected {
			rows := storeFinalRows
			if k == storeKeys {
				rows = storeDeltaRows
			}
			expected[k] = make([]uint64, rows)
			for r := range expected[k] {
				expected[k][r] = fillRow(row, e.seed, k, r)
			}
		}
		store, err = open()
		return err
	})
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := store.Close(); err == nil {
			err = cerr
		}
	}()

	rng := rand.New(rand.NewSource(e.seed))
	arena := tensor.NewArena()
	written := make([]int, storeKeys+1) // rows appended so far, per key
	chunk := tensor.New(storeChunkRows, storeRowFloats)
	var appendS, readS, otherS, appendedBytes float64
	var rowsRead, hits, misses int64
	session := rec.start("session", -1, 0)

	for cycle := 1; cycle <= storeCycles; cycle++ {
		cyc := rec.start("cycle", session, cycle)
		var cycleS float64
		op := func(name string, fn func() error) (float64, error) {
			d, err := rec.timed(name, cyc, cycle, fn)
			cycleS += d
			return d, err
		}

		// Append this cycle's rows to every key, a chunk at a time.
		keys := storeKeys
		if cycle == 1 {
			keys++ // the artifact a later replan orphans
		}
		for k := 0; k < keys; k++ {
			for lo := 0; lo < storeDeltaRows; lo += storeChunkRows {
				n := min(storeChunkRows, storeDeltaRows-lo)
				recs := tensor.FromSlice(chunk.Data()[:n*storeRowFloats], n, storeRowFloats)
				_ = rec.do("bench.fill_rows", cyc, cycle, func() error {
					for i := 0; i < n; i++ {
						fillRow(recs.Row(i), e.seed, k, written[k]+i)
					}
					return nil
				})
				written[k] += n
				d, err := op("storage.append", func() error { return store.Append(storeKeyName(k), recs) })
				if err != nil {
					return nil, err
				}
				appendS += d
				appendedBytes += float64(n * storeRowBytes)
				res.ops++
			}
			if got, err := store.Count(storeKeyName(k)); err != nil {
				return nil, err
			} else if got != written[k] {
				res.failures = append(res.failures, fmt.Sprintf("cycle %d: %s holds %d rows, want %d", cycle, storeKeyName(k), got, written[k]))
			}
		}

		// Half-way, the orphan is collected and the store reopened, as
		// after a replan and a restart.
		if cycle == storeCycles/2+1 {
			h, m := store.CacheStats()
			hits, misses = hits+h, misses+m
			d, err := op("storage.gc_reopen", func() error {
				if _, _, err := store.GC(func(key string) bool { return key != storeOrphanKey }); err != nil {
					return err
				}
				if err := store.Close(); err != nil {
					return err
				}
				reopened, err := open()
				if err != nil {
					return err
				}
				store = reopened
				return nil
			})
			if err != nil {
				return nil, err
			}
			otherS += d
			if _, err := os.Stat(filepath.Join(dir, "store", storeOrphanKey+".nts")); !os.IsNotExist(err) {
				res.failures = append(res.failures, "orphan artifact survived GC")
			}
		}

		// Epochs of shuffled mini-batch gathers over all rows so far.
		rows := cycle * storeDeltaRows
		for epoch := 0; epoch < storeEpochs; epoch++ {
			perm := rng.Perm(rows)
			for lo := 0; lo < rows; lo += storeBatchRows {
				idx := perm[lo:min(lo+storeBatchRows, rows)]
				scope := arena.Scope()
				for k := 0; k < storeKeys; k++ {
					var got *tensor.Tensor
					d, err := op("storage.read_rows", func() (err error) {
						got, err = store.ReadRowsIn(storeKeyName(k), idx, scope)
						return err
					})
					if err != nil {
						scope.Release()
						return nil, err
					}
					readS += d
					rowsRead += int64(len(idx))
					res.ops++
					_ = rec.do("bench.check_rows", cyc, cycle, func() error {
						for i, r := range idx {
							if rowSum(got.Row(i)) != expected[k][r] {
								res.failures = append(res.failures, fmt.Sprintf("cycle %d: %s row %d read back wrong", cycle, storeKeyName(k), r))
								break
							}
						}
						return nil
					})
				}
				scope.Release()
			}
		}
		rec.end(cyc)
		res.cycles = append(res.cycles, cycleS)
	}
	rec.end(session)

	h, m := store.CacheStats()
	hits, misses = hits+h, misses+m
	res.wall = sum(res.cycles)
	res.work, res.workS = float64(rowsRead), readS
	l := res.layer
	l["storage.append_s"] = appendS
	l["storage.read_rows_s"] = readS
	l["storage.gc_reopen_s"] = otherS
	l["storage.read_rows_us_per_row"] = 1e6 * readS / float64(rowsRead)
	l["storage.append_mb_per_s"] = appendedBytes / 1e6 / appendS
	l["storage.bytes_read"] = float64(counters.BytesRead())
	l["storage.bytes_written"] = float64(counters.BytesWritten())
	l["storage.reads"] = float64(counters.Reads())
	l["storage.writes"] = float64(counters.Writes())
	l["storage.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	l["storage.footprint_mb"] = dirBytes(dir) / 1e6
	if rec != nil {
		l["bench.unattributed_pct"] = unattributedPct(rec.spans, session)
	}
	return res, nil
}
