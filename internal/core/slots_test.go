package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/obs"
	"nautilus/internal/tensor"
	"nautilus/internal/tensor/tune"
	"nautilus/internal/workloads"
)

// TestMain gives every test of the package at least two group slots, so
// the race detector sees concurrent groups on a one-CPU box too.
func TestMain(m *testing.M) {
	tensor.SetMaxWorkers(max(2, tensor.MaxWorkers()))
	os.Exit(m.Run())
}

// sessionOutcome is everything a session must reproduce whatever the slot
// count: each candidate's validation bits per cycle, every checkpoint
// file's bytes, and the execution counts.
type sessionOutcome struct {
	Accs         []string
	Checkpoints  map[string][sha256.Size]byte
	ComputeFLOPs int64
	LoadBytes    int64
	TrainSteps   int
	DiskWritten  int64
}

// runSlotSession runs two labeling cycles of spec at mini scale on the
// given number of slots; the second cycle crosses the backoff limit, so the
// session replans once on artifacts that exist.
func runSlotSession(t *testing.T, spec workloads.Spec, approach Approach, slots int, tr *obs.Tracer) sessionOutcome {
	t.Helper()
	hw := miniHW
	hw.Workers = slots
	inst, err := spec.Build(workloads.Mini, hw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(t.TempDir())
	cfg.Approach = approach
	cfg.HW = hw
	cfg.MaxRecords = 8
	cfg.Obs = tr
	ms, err := New(inst.Items, inst.MM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if got := tensor.MaxWorkers(); got != slots {
		t.Fatalf("worker cap %d, want %d", got, slots)
	}
	out := sessionOutcome{Checkpoints: map[string][sha256.Size]byte{}}
	lab := data.NewLabeler(inst.NewPool(5), 12, 8)
	for cycle := 1; cycle <= 2; cycle++ {
		snap, _, _ := lab.NextCycle()
		res, err := ms.Fit(snap)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			out.Accs = append(out.Accs, fmt.Sprintf("c%d %s %x %x", cycle, r.Model, math.Float64bits(r.ValAcc), math.Float64bits(r.ValLoss)))
		}
	}
	files, err := filepath.Glob(filepath.Join(cfg.WorkDir, "checkpoints", "*.nckp"))
	if err != nil || len(files) != 2*len(ms.Planner().Plan().Groups) {
		t.Fatalf("%d checkpoint files for %d groups × 2 cycles (%v)", len(files), len(ms.Planner().Plan().Groups), err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out.Checkpoints[filepath.Base(f)] = sha256.Sum256(b)
	}
	m := ms.Metrics()
	out.ComputeFLOPs, out.LoadBytes, out.TrainSteps, out.DiskWritten = m.ComputeFLOPs, m.LoadBytes, m.TrainSteps, m.Disk.BytesWritten()
	return out
}

// TestFitIdenticalOnAnySlotCount is the differential check behind running
// fused groups concurrently: one slot and several give bit-identical
// accuracies and losses, byte-identical checkpoints and equal execution
// counts, for every approach, with and without observability (where every
// span must be ended when the session is done). The grids are cut to one
// learning rate and short epochs; shapes, depths, batch sizes and the
// two-epoch-setting split of FTR-3 are kept.
func TestFitIdenticalOnAnySlotCount(t *testing.T) {
	prev := tensor.MaxWorkers()
	t.Cleanup(func() { tensor.SetMaxWorkers(prev) })
	ftr3, atr, ftu := workloads.FTR3(), workloads.ATR(), workloads.FTU()
	ftr3.LRs, ftr3.Epochs = ftr3.LRs[:1], []int{1, 2}
	atr.LRs, atr.Epochs = atr.LRs[:1], []int{1}
	ftu.LRs, ftu.Epochs = ftu.LRs[:1], []int{1}
	for _, spec := range []workloads.Spec{ftr3, atr, ftu} {
		for _, approach := range Approaches() {
			t.Run(spec.Name+"/"+string(approach), func(t *testing.T) {
				want := runSlotSession(t, spec, approach, 1, nil)
				if len(want.Accs) == 0 || want.TrainSteps == 0 {
					t.Fatalf("reference session trained nothing: %+v", want)
				}
				for _, tr := range []*obs.Tracer{nil, obs.New(nil)} {
					got := runSlotSession(t, spec, approach, 3, tr)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("3 slots (obs %v) differ from 1 slot:\n got %+v\nwant %+v", tr != nil, got, want)
					}
					if tr != nil {
						// Current Practice has one group per candidate, all far
						// below B_mem, so the slots must fill.
						if v := tr.Registry().Gauge("trainer.groups_in_flight").Value(); v > 3 || (approach == CurrentPractice && v != 3) {
							t.Errorf("%d groups in flight on 3 slots", v)
						}
						if v := tr.Registry().Counter("trainer.steps").Value(); v != int64(want.TrainSteps) {
							t.Errorf("trainer.steps counter %d, want %d", v, want.TrainSteps)
						}
						for _, sp := range tr.Report().OpenSpans {
							t.Errorf("span %s still open after the session", sp.Name)
						}
					}
				}
			})
		}
	}
}

// TestNewReportsTuneTableCoverage loads a schedule table tuned for one
// worker under a cap of two: New must say that none of it applies instead
// of running on heuristics without a word.
func TestNewReportsTuneTableCoverage(t *testing.T) {
	prevWorkers, prevSource := tensor.MaxWorkers(), tensor.CurrentScheduleSource()
	t.Cleanup(func() {
		tensor.SetMaxWorkers(prevWorkers)
		tensor.SetScheduleSource(prevSource)
	})
	table := &tune.Table{Workers: 1}
	table.Add(tune.Entry{Op: string(tensor.OpMatMul), DimBuckets: [3]int{9, 9, 9}, WorkerBucket: tune.Bucket(1), Schedule: tensor.Schedule{Workers: 1}})
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tune.Save(path, table); err != nil {
		t.Fatal(err)
	}
	for workers, want := range map[int]string{
		1: "table tuned for 1 workers, active cap 1, 1 of 1 entries applicable",
		2: "table tuned for 1 workers, active cap 2, 0 of 1 entries applicable",
	} {
		items, mm := tinyWorkload(t)
		cfg := DefaultConfig(t.TempDir())
		cfg.HW = miniHW
		cfg.HW.Workers = workers
		cfg.TuneTablePath = path
		ms, err := New(items, mm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := ms.TuneCoverage(); got != want {
			t.Errorf("cap %d: TuneCoverage() = %q, want %q", workers, got, want)
		}
		if err := ms.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
