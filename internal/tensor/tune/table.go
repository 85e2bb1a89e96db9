// Package tune autotunes the tensor kernels: it benchmarks candidate
// schedules (tile sizes, worker count, serial cutoff) per
// shape class and persists the winners in a versioned JSON table that the
// kernels dispatch on at runtime (tensor.SetScheduleSource).
//
// Shape classes bucket each dimension by log2, so one tuned entry covers
// every shape in its neighborhood and the table stays small. A lookup miss
// falls back to the kernels' built-in heuristics — a partial or absent
// table degrades gracefully, exactly like profile.Calibration.
package tune

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"os"

	"nautilus/internal/tensor"
)

// TableVersion is the on-disk schema version. Load rejects files written
// by a different version so a stale table fails loudly (re-tune with
// `make tune` / nautilus-bench -exp tune) instead of silently dispatching
// schedules measured against kernels that no longer exist.
const TableVersion = 1

// Bucket maps a dimension to its log2 shape class: 0 for n <= 0, else
// floor(log2(n))+1. Neighboring sizes share a bucket (256 and 300 both
// land in 9), which is what lets one tuned entry serve a family of shapes.
func Bucket(n int) int {
	if n <= 0 {
		return 0
	}
	return bits.Len(uint(n))
}

// Entry is one tuned decision: for (op, bucketed dims, bucketed worker
// cap), run this schedule. The measured timings ride along for reporting
// and regression gating; lookup ignores them.
type Entry struct {
	Op           string          `json:"op"`
	DimBuckets   [3]int          `json:"dim_buckets"`
	WorkerBucket int             `json:"worker_bucket"`
	Schedule     tensor.Schedule `json:"schedule"`

	// Case names the representative shape the entry was tuned on.
	Case string `json:"case,omitempty"`
	// BaseNsOp is the timing with no table: the zero Schedule at one worker.
	BaseNsOp float64 `json:"base_ns_op,omitempty"`
	// BestNsOp is the chosen schedule's timing on the same shape.
	BestNsOp float64 `json:"best_ns_op,omitempty"`
	// Speedup is BaseNsOp / BestNsOp: what the entry buys over no table.
	Speedup float64 `json:"speedup,omitempty"`
}

// Table is a persisted schedule table. It implements
// tensor.ScheduleSource, so a loaded table plugs straight into
// tensor.SetScheduleSource. The lookup index is built once at load (or
// after Add) and read-only afterwards, making concurrent lookups safe.
type Table struct {
	Version int `json:"version"`
	// Source names the run that produced the table (host, worker cap).
	Source string `json:"source,omitempty"`
	// Workers is the ambient worker cap the table was tuned under.
	Workers int     `json:"workers,omitempty"`
	Entries []Entry `json:"entries"`

	index map[tableKey]tensor.Schedule
}

type tableKey struct {
	op         tensor.Op
	d0, d1, d2 int
	w          int
}

func entryKey(e Entry) tableKey {
	return tableKey{
		op: tensor.Op(e.Op),
		d0: e.DimBuckets[0], d1: e.DimBuckets[1], d2: e.DimBuckets[2],
		w: e.WorkerBucket,
	}
}

// Add appends an entry and rebuilds the lookup index. Later entries for
// the same key win, so re-tuning a case overrides its predecessor.
func (t *Table) Add(e Entry) {
	t.Entries = append(t.Entries, e)
	t.buildIndex()
}

func (t *Table) buildIndex() {
	idx := make(map[tableKey]tensor.Schedule, len(t.Entries))
	for _, e := range t.Entries {
		idx[entryKey(e)] = e.Schedule
	}
	t.index = idx
}

// Schedule implements tensor.ScheduleSource: it resolves (op, dims) under
// the given worker cap to the tuned schedule for that shape class, or
// reports a miss so the kernel falls back to its default heuristics.
func (t *Table) Schedule(op tensor.Op, dims [3]int, workers int) (tensor.Schedule, bool) {
	if t == nil || t.index == nil {
		return tensor.Schedule{}, false
	}
	sch, ok := t.index[tableKey{
		op: op,
		d0: Bucket(dims[0]), d1: Bucket(dims[1]), d2: Bucket(dims[2]),
		w: Bucket(workers),
	}]
	return sch, ok
}

// Applicable counts the entries a lookup under the given worker cap can
// reach. Schedule keys on Bucket(workers), so under a cap in another bucket
// than the table was tuned for every dispatch misses and the kernels run on
// their heuristics.
func (t *Table) Applicable(workers int) int {
	n := 0
	for _, e := range t.Entries {
		if e.WorkerBucket == Bucket(workers) {
			n++
		}
	}
	return n
}

// Coverage is the line loaders print so that such a table is not a silent
// no-op.
func (t *Table) Coverage(workers int) string {
	return fmt.Sprintf("table tuned for %d workers, active cap %d, %d of %d entries applicable",
		t.Workers, workers, t.Applicable(workers), len(t.Entries))
}

// Save writes the table as indented JSON at path, stamping the schema
// version.
func Save(path string, t *Table) error {
	if t == nil {
		return fmt.Errorf("tune: save nil table")
	}
	tt := *t
	tt.Version = TableVersion
	data, err := json.MarshalIndent(&tt, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a schedule table. A version mismatch is a hard
// error: schedules are measurements against a specific kernel generation,
// and dispatching stale ones would silently undo the tuning. So is a
// negative schedule field, which no tuner writes. Unknown keys (such as the
// retired "kernel") are ignored.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tune: read table: %w", err)
	}
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("tune: parse table %s: %w", path, err)
	}
	if t.Version != TableVersion {
		return nil, fmt.Errorf("tune: table %s has version %d, this build reads version %d — regenerate it (make tune)",
			path, t.Version, TableVersion)
	}
	if len(t.Entries) == 0 {
		return nil, fmt.Errorf("tune: table %s has no entries", path)
	}
	for i, e := range t.Entries {
		if s := e.Schedule; s.TileM < 0 || s.TileK < 0 || s.Workers < 0 || s.SerialBelow < 0 {
			return nil, fmt.Errorf("tune: table %s entry %d (%s): negative schedule field in %+v", path, i, e.Op, s)
		}
	}
	t.buildIndex()
	return &t, nil
}
