package workloads

import (
	"testing"

	"nautilus/internal/profile"
)

func TestTable3ModelCounts(t *testing.T) {
	// The exact |Q| values of Table 3.
	want := map[string]int{"FTR-1": 36, "FTR-2": 24, "FTR-3": 12, "ATR": 24, "FTU": 24}
	for _, s := range All() {
		if got := s.NumModels(); got != want[s.Name] {
			t.Errorf("%s: %d models, want %d", s.Name, got, want[s.Name])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("FTR-2"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestBuildMiniInstances(t *testing.T) {
	for _, s := range All() {
		inst, err := s.Build(Mini, profile.DefaultHardware())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if len(inst.Items) != s.NumModels() {
			t.Errorf("%s: built %d items, want %d", s.Name, len(inst.Items), s.NumModels())
		}
		if inst.MM == nil || inst.MM.Graph.NumNodes() == 0 {
			t.Errorf("%s: missing multi-model graph", s.Name)
		}
		// Merging must save nodes: the shared trunk collapses.
		var perModel int
		for _, it := range inst.Items {
			perModel += it.Model.NumNodes()
		}
		if inst.MM.Graph.NumNodes() >= perModel {
			t.Errorf("%s: multi-model graph did not merge anything", s.Name)
		}
		// Every item carries a usable hyperparameter set.
		for _, it := range inst.Items {
			if it.Epochs <= 0 || it.BatchSize <= 0 || it.LR <= 0 {
				t.Errorf("%s: bad item %+v", s.Name, it)
			}
		}
	}
}

func TestBuildPaperScaleStructural(t *testing.T) {
	// Paper-scale builds must profile without materializing weights.
	for _, s := range []Spec{FTR3(), FTU()} {
		inst, err := s.Build(Paper, profile.DefaultHardware())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		total, _ := inst.Items[0].Model.ParamCount()
		if total < 20_000_000 {
			t.Errorf("%s: paper-scale model has %d params", s.Name, total)
		}
		for _, p := range inst.Items[0].Model.AllParams() {
			if p.Materialized() {
				t.Fatalf("%s: paper-scale build materialized weights", s.Name)
			}
		}
	}
}

func TestUniqueModelNames(t *testing.T) {
	inst, err := FTR2().Build(Mini, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, it := range inst.Items {
		if seen[it.Model.Name] {
			t.Errorf("duplicate model name %q", it.Model.Name)
		}
		seen[it.Model.Name] = true
	}
}

func TestDistinctHeadSeedsAcrossCandidates(t *testing.T) {
	inst, err := FTR3().Build(Mini, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	// FTR-3 has one strategy: all 12 models share the frozen trunk but
	// have distinct trainable heads.
	sigA := inst.Items[0].Prof.Sig(inst.Items[0].Model.Node("classifier"))
	sigB := inst.Items[1].Prof.Sig(inst.Items[1].Model.Node("classifier"))
	if sigA == sigB {
		t.Error("candidate heads must differ")
	}
}

func TestNewPoolAndSchedule(t *testing.T) {
	for _, s := range []Spec{FTR3(), FTU()} {
		inst, err := s.Build(Mini, profile.DefaultHardware())
		if err != nil {
			t.Fatal(err)
		}
		pool := inst.NewPool(5)
		per, tr, cycles := inst.CycleSchedule()
		if pool.Size() < per*cycles {
			t.Errorf("%s: pool %d too small for %d cycles × %d", s.Name, pool.Size(), cycles, per)
		}
		if tr >= per {
			t.Errorf("%s: bad split %d/%d", s.Name, tr, per)
		}
		// Pool record shape matches the model input.
		inShape := inst.Items[0].Model.Inputs()[0].Layer.(interface{ OutShape([][]int) []int }).OutShape(nil)
		poolShape := pool.X.Shape()[1:]
		if len(inShape) != len(poolShape) {
			t.Fatalf("%s: pool shape %v vs input %v", s.Name, poolShape, inShape)
		}
		for i := range inShape {
			if inShape[i] != poolShape[i] {
				t.Errorf("%s: pool shape %v vs input %v", s.Name, poolShape, inShape)
			}
		}
	}
}

func TestPaperSchedule(t *testing.T) {
	inst, err := FTR3().Build(Paper, profile.DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	per, tr, cycles := inst.CycleSchedule()
	if per != 500 || tr != 400 || cycles != 10 {
		t.Errorf("paper schedule = %d/%d/%d, want 500/400/10", per, tr, cycles)
	}
}
