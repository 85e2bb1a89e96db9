package simclock

import (
	"fmt"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/mmg"
	"nautilus/internal/opt"
	"nautilus/internal/profile"
)

// simWorkload builds a 2-model workload with plans for the given approach
// behaviour.
func simWorkload(t *testing.T, materialize bool) Workload {
	t.Helper()
	// A disk fast enough that materializing the toy trunk pays off.
	hw := profile.Hardware{FLOPSThroughput: 6e12, DiskThroughput: 6e12, WorkspaceBytes: 1 << 30}
	var items []opt.WorkItem
	var groups []*opt.FusedGroup
	shared := layers.NewDense(8192, 256, layers.ActTanh, 3)
	var sigs map[graph.Signature]bool
	for i := 0; i < 2; i++ {
		m := graph.NewModel(fmt.Sprintf("m%d", i))
		in := m.AddInput("in", 8192)
		f := m.AddNode("f", shared, in)
		h := m.AddNode("h", layers.NewDense(256, 4, layers.ActNone, int64(10+i)), f)
		h.Trainable = true
		m.SetOutputs(h)
		prof, err := profile.Profile(m, hw)
		if err != nil {
			t.Fatal(err)
		}
		it := opt.WorkItem{Model: m, Prof: prof, Epochs: 2, BatchSize: 16, LR: 1e-3}
		items = append(items, it)
		mmSingle, err := mmg.Build(m)
		if err != nil {
			t.Fatal(err)
		}
		mprof, err := profile.Profile(mmSingle.Graph, hw)
		if err != nil {
			t.Fatal(err)
		}
		if materialize {
			if sigs == nil {
				sigs = map[graph.Signature]bool{mprof.Sig(mmSingle.NodeOf(m, f)): true}
			}
			plan, err := opt.SolveReusePlan(mprof, sigs)
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, &opt.FusedGroup{Items: []opt.WorkItem{it}, MM: mmSingle, Plan: plan})
		} else {
			groups = append(groups, &opt.FusedGroup{Items: []opt.WorkItem{it}, MM: mmSingle, Plan: opt.CurrentPracticePlan(mprof)})
		}
	}
	w := Workload{Items: items, Groups: groups, FullCheckpoints: !materialize, ProfileModels: materialize}
	if materialize {
		w.MatSigs = sigs
		w.MatFLOPsPerRecord = 1000
		w.MatBytesPerRecord = 1024
	}
	return w
}

var testSched = Schedule{Cycles: 3, PerCycle: 100, TrainPerCycle: 80}

func TestSimulateBasicInvariants(t *testing.T) {
	w := simWorkload(t, false)
	res, err := Simulate(w, testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cycles) != 3 {
		t.Fatalf("cycles = %d", len(res.Cycles))
	}
	if res.TotalSec() <= res.Init.Total() {
		t.Error("total must exceed init")
	}
	// Cycles grow with accumulated data.
	for i := 1; i < len(res.Cycles); i++ {
		if res.Cycles[i].TrainSec <= res.Cycles[i-1].TrainSec {
			t.Error("training time must grow with snapshot size")
		}
	}
	// Current Practice: no materialization time.
	for _, c := range res.Cycles {
		if c.MaterializeSec != 0 {
			t.Error("current practice must not materialize")
		}
	}
	if u := res.Utilization(); u <= 0 || u >= 1 {
		t.Errorf("utilization %v out of (0,1)", u)
	}
}

func TestSimulateMaterializationCharged(t *testing.T) {
	w := simWorkload(t, true)
	res, err := Simulate(w, testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cycles {
		if c.MaterializeSec <= 0 {
			t.Error("materializing approach must pay materialization time")
		}
	}
	if res.Init.ProfileSec <= 0 || res.Init.PlanCheckpointsSec <= 0 {
		t.Error("nautilus-style init must include profiling and plan checkpoints")
	}
	// Feature reads are cache reads, not disk reads.
	if res.CacheReadBytes <= 0 {
		t.Error("materialized loads must register as cache reads")
	}
}

func TestSimulateNautilusBeatsCurrentPractice(t *testing.T) {
	cp, err := Simulate(simWorkload(t, false), testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	nt, err := Simulate(simWorkload(t, true), testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	var cpTrain, ntTrain float64
	for i := range cp.Cycles {
		cpTrain += cp.Cycles[i].TrainSec
		ntTrain += nt.Cycles[i].TrainSec
	}
	if ntTrain >= cpTrain {
		t.Errorf("materialized training %v not below current practice %v", ntTrain, cpTrain)
	}
	// Trainable-only checkpoints write less.
	if nt.DiskWriteBytes >= cp.DiskWriteBytes {
		t.Errorf("nautilus wrote %d, current practice %d", nt.DiskWriteBytes, cp.DiskWriteBytes)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(simWorkload(t, true), testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(simWorkload(t, true), testSched, profile.DefaultHardware(), DefaultOverheads())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSec() != b.TotalSec() {
		t.Error("simulation must be deterministic")
	}
}

func TestSimulateEmptyGroupsRejected(t *testing.T) {
	if _, err := Simulate(Workload{}, testSched, profile.DefaultHardware(), DefaultOverheads()); err == nil {
		t.Error("empty workload should error")
	}
}

func TestPaperSchedule(t *testing.T) {
	s := PaperSchedule()
	if s.Cycles != 10 || s.PerCycle != 500 || s.TrainPerCycle != 400 {
		t.Errorf("paper schedule %+v", s)
	}
}

func TestOverheadsScaleInit(t *testing.T) {
	w := simWorkload(t, false)
	small, _ := Simulate(w, testSched, profile.DefaultHardware(), Overheads{ModelBuildSec: 1, EffectiveReadBW: 3e9})
	big, _ := Simulate(w, testSched, profile.DefaultHardware(), Overheads{ModelBuildSec: 10, EffectiveReadBW: 3e9})
	if big.Init.OriginalCheckpointsSec <= small.Init.OriginalCheckpointsSec {
		t.Error("init must scale with model build overhead")
	}
}
