package data

import (
	"testing"
	"testing/quick"

	"nautilus/internal/tensor"
)

func TestSynthNERShapesAndLabels(t *testing.T) {
	cfg := NERConfig{Records: 50, Seq: 10, Vocab: 100, Types: 4, Seed: 1}
	p := SynthNER(cfg)
	if p.Size() != 50 {
		t.Fatalf("pool size %d", p.Size())
	}
	if !tensor.ShapeEq(p.X.Shape(), []int{50, 10}) || !tensor.ShapeEq(p.Y.Shape(), []int{50, 10}) {
		t.Fatalf("shapes %v %v", p.X.Shape(), p.Y.Shape())
	}
	classes := cfg.NumClasses()
	if classes != 9 {
		t.Errorf("classes = %d, want 9", classes)
	}
	sawEntity := false
	for i, v := range p.Y.Data() {
		if v < 0 || v >= float32(classes) {
			t.Fatalf("label %v out of range at %d", v, i)
		}
		if v != 0 {
			sawEntity = true
		}
	}
	if !sawEntity {
		t.Error("no entities planted")
	}
	for _, v := range p.X.Data() {
		if v < 0 || v >= float32(cfg.Vocab) {
			t.Fatalf("token %v out of vocab", v)
		}
	}
}

func TestSynthNERPlantedBandsAreConsistent(t *testing.T) {
	// B/I labels must only appear on tokens from entity vocab bands.
	cfg := NERConfig{Records: 100, Seq: 12, Vocab: 200, Types: 2, Seed: 2}
	p := SynthNER(cfg)
	common := cfg.Vocab / 2
	for i := range p.Y.Data() {
		label := int(p.Y.Data()[i])
		token := int(p.X.Data()[i])
		if label == 0 && token >= common {
			t.Fatalf("O label on entity-band token %d", token)
		}
		if label != 0 && token < common {
			t.Fatalf("entity label %d on common-band token %d", label, token)
		}
	}
}

func TestSynthNERDeterministic(t *testing.T) {
	cfg := NERConfig{Records: 20, Seq: 8, Vocab: 50, Types: 2, Seed: 3}
	a, b := SynthNER(cfg), SynthNER(cfg)
	if !a.X.AllClose(b.X, 0) || !a.Y.AllClose(b.Y, 0) {
		t.Error("same seed must generate identical pools")
	}
}

func TestSynthImagesBalancedAndMarked(t *testing.T) {
	cfg := ImageConfig{Records: 40, H: 16, W: 16, C: 3, Seed: 4}
	p := SynthImages(cfg)
	pos := 0
	for _, v := range p.Y.Data() {
		if v == 1 {
			pos++
		}
	}
	if pos != 20 {
		t.Errorf("positives = %d, want 20", pos)
	}
	// Positive images contain the bright parasite pixel; negatives don't.
	rec := 16 * 16 * 3
	for r := 0; r < 40; r++ {
		img := p.X.Data()[r*rec : (r+1)*rec]
		maxR := float32(0)
		for i := 0; i < len(img); i += 3 {
			if img[i] > maxR {
				maxR = img[i]
			}
		}
		if p.Y.Data()[r] == 1 && maxR < 0.99 {
			t.Errorf("positive record %d missing blob (max red %v)", r, maxR)
		}
	}
}

func TestLabelerReleasesInPoolOrder(t *testing.T) {
	cfg := NERConfig{Records: 25, Seq: 4, Vocab: 50, Types: 2, Seed: 5}
	p := SynthNER(cfg)
	l := NewLabeler(p, 10, 8)
	s1, dx1, _ := l.NextCycle()
	_, dx2, _ := l.NextCycle()
	if dx1.Dim(0) != 8 || dx2.Dim(0) != 8 || s1.ValidSize() != 2 {
		t.Fatal("wrong batch sizes")
	}
	if got := len(p.UnlabeledIndices()); got != 5 || l.HasMore() {
		t.Errorf("unlabeled = %d (HasMore %v), want 5 and no full cycle", got, l.HasMore())
	}
	if !dx1.AllClose(p.GatherX([]int{0, 1, 2, 3, 4, 5, 6, 7}), 0) || !dx2.AllClose(p.GatherX([]int{10, 11, 12, 13, 14, 15, 16, 17}), 0) {
		t.Error("cycles must take the pool's records in order, train split first")
	}
	// A pool running dry releases what is left, train split first.
	s3, dx3, _ := l.NextCycle()
	if dx3.Dim(0) != 5 || s3.TrainSize() != 21 || s3.ValidSize() != 4 || len(p.UnlabeledIndices()) != 0 {
		t.Errorf("last cycle: delta %d, snapshot %d/%d; want 5, 21/4 and a drained pool", dx3.Dim(0), s3.TrainSize(), s3.ValidSize())
	}
}

func TestLabelerAccumulatesSnapshots(t *testing.T) {
	cfg := NERConfig{Records: 100, Seq: 4, Vocab: 50, Types: 2, Seed: 6}
	p := SynthNER(cfg)
	l := NewLabeler(p, 20, 16)
	var prevTrain int
	for k := 1; l.HasMore(); k++ {
		snap, dx, _ := l.NextCycle()
		if snap.Cycle != k {
			t.Fatalf("cycle = %d, want %d", snap.Cycle, k)
		}
		if dx.Dim(0) != 16 {
			t.Fatalf("delta train = %d, want 16", dx.Dim(0))
		}
		if snap.TrainSize() != prevTrain+16 {
			t.Fatalf("train size = %d, want %d", snap.TrainSize(), prevTrain+16)
		}
		if snap.ValidSize() != k*4 {
			t.Fatalf("valid size = %d, want %d", snap.ValidSize(), k*4)
		}
		prevTrain = snap.TrainSize()
	}
	if l.cur.Cycle != 5 {
		t.Errorf("completed %d cycles, want 5", l.cur.Cycle)
	}
}

// TestActiveLabelerSnapshotsGrow drives scored cycles: each releases PerCycle
// records, grows the snapshot by the train share, and the pool drains on
// schedule whatever order the scores pick.
func TestActiveLabelerSnapshotsGrow(t *testing.T) {
	p := SynthNER(NERConfig{Records: 100, Seq: 4, Vocab: 50, Types: 2, Seed: 6})
	l := NewLabeler(p, 20, 16)
	var prevTrain int
	for k := 1; l.HasMore(); k++ {
		// Reverse pool order: the last unlabeled record scores highest.
		scores := make([]float64, len(p.UnlabeledIndices()))
		for i := range scores {
			scores[i] = float64(i)
		}
		snap, err := l.NextCycleScored(scores)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Cycle != k {
			t.Fatalf("cycle = %d, want %d", snap.Cycle, k)
		}
		if snap.TrainSize() != prevTrain+16 {
			t.Fatalf("train size = %d, want %d", snap.TrainSize(), prevTrain+16)
		}
		if snap.ValidSize() != k*4 {
			t.Fatalf("valid size = %d, want %d", snap.ValidSize(), k*4)
		}
		prevTrain = snap.TrainSize()
	}
	if l.cur.Cycle != 5 {
		t.Errorf("completed %d cycles, want 5", l.cur.Cycle)
	}
}

func TestLabelerSnapshotsGrowMonotonically(t *testing.T) {
	// Property: D_{k+1} ⊇ D_k — earlier training records stay in place.
	prop := func(seed int64) bool {
		cfg := NERConfig{Records: 60, Seq: 3, Vocab: 40, Types: 2, Seed: seed}
		p := SynthNER(cfg)
		l := NewLabeler(p, 12, 9)
		var prev *tensor.Tensor
		for l.HasMore() {
			snap, _, _ := l.NextCycle()
			if prev != nil {
				for i := 0; i < prev.Len(); i++ {
					if snap.TrainX.Data()[i] != prev.Data()[i] {
						return false
					}
				}
			}
			prev = snap.TrainX
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestNewLabelerValidation(t *testing.T) {
	p := SynthNER(NERConfig{Records: 10, Seq: 2, Vocab: 20, Types: 1, Seed: 7})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid split")
		}
	}()
	NewLabeler(p, 10, 10)
}

func TestPaperScaleConfigs(t *testing.T) {
	if c := ConNLLLike(); c.Records != 10000 || c.Seq != 128 {
		t.Errorf("ConNLLLike = %+v", c)
	}
	if c := MalariaLike(); c.Records != 8000 || c.H != 128 {
		t.Errorf("MalariaLike = %+v", c)
	}
}

func TestLabelIndicesAndUnlabeled(t *testing.T) {
	p := SynthNER(NERConfig{Records: 10, Seq: 3, Vocab: 40, Types: 2, Seed: 8})
	x, y, err := p.LabelIndices([]int{7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 2 || y.Dim(0) != 2 {
		t.Fatal("wrong batch size")
	}
	// Returned rows match the pool rows.
	for j := 0; j < 3; j++ {
		if x.At(0, j) != p.X.At(7, j) || x.At(1, j) != p.X.At(2, j) {
			t.Fatal("gathered rows differ from pool")
		}
	}
	if got := len(p.UnlabeledIndices()); got != 8 {
		t.Errorf("unlabeled = %d, want 8", got)
	}
	// Double-labeling rejected.
	if _, _, err := p.LabelIndices([]int{7}); err == nil {
		t.Error("relabeling must error")
	}
	if _, _, err := p.LabelIndices([]int{99}); err == nil {
		t.Error("out-of-range index must error")
	}
	// Sequential labeling skips already-labeled records.
	_, xb, _ := NewLabeler(p, 4, 3).NextCycle()
	if xb.Dim(0) != 3 {
		t.Fatal("sequential batch size")
	}
	if xb.At(0, 0) != p.X.At(0, 0) || xb.At(2, 0) != p.X.At(3, 0) {
		t.Error("sequential labeling should take records 0,1,3 (2 already labeled)")
	}
}

func TestLabelerScoredPicksHighestScores(t *testing.T) {
	p := SynthNER(NERConfig{Records: 12, Seq: 2, Vocab: 30, Types: 1, Seed: 9})
	l := NewLabeler(p, 4, 3)
	if !l.HasMore() {
		t.Fatal("should have cycles available")
	}
	// Score record i with value i: the labeler must pick 11,10,9,8.
	unlabeled := p.UnlabeledIndices()
	scores := make([]float64, len(unlabeled))
	for i, r := range unlabeled {
		scores[i] = float64(r)
	}
	snap, err := l.NextCycleScored(scores)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TrainSize() != 3 || snap.ValidSize() != 1 {
		t.Fatalf("split %d/%d", snap.TrainSize(), snap.ValidSize())
	}
	for _, want := range []int{11, 10, 9, 8} {
		if !p.labeled[want] {
			t.Errorf("record %d should be labeled (highest scores)", want)
		}
	}
	if p.labeled[0] {
		t.Error("low-score records must stay unlabeled")
	}
	// First labeled train row must be record 11's data.
	if snap.TrainX.At(0, 0) != p.X.At(11, 0) {
		t.Error("train rows not in score order")
	}
}

// A nil-scored cycle is a pool-order cycle: on equal pools the two calls
// grow equal snapshots. A wrong scores length and a pool short of a full
// cycle are errors.
func TestLabelerScoredNilMatchesNextCycle(t *testing.T) {
	cfg := NERConfig{Records: 10, Seq: 2, Vocab: 30, Types: 1, Seed: 10}
	seq, scored := NewLabeler(SynthNER(cfg), 4, 3), NewLabeler(SynthNER(cfg), 4, 3)
	for cycle := 1; cycle <= 2; cycle++ {
		want, _, _ := seq.NextCycle()
		got, err := scored.NextCycleScored(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycle != want.Cycle || !got.TrainX.AllClose(want.TrainX, 0) || !got.TrainY.AllClose(want.TrainY, 0) ||
			!got.ValidX.AllClose(want.ValidX, 0) || !got.ValidY.AllClose(want.ValidY, 0) {
			t.Fatalf("cycle %d: NextCycleScored(nil) snapshot differs from NextCycle's", cycle)
		}
		if cycle == 1 {
			if _, err := scored.NextCycleScored([]float64{1}); err == nil {
				t.Error("score length mismatch must error")
			}
		}
	}
	if scored.HasMore() {
		t.Error("2 records left, HasMore should be false")
	}
	if _, err := scored.NextCycleScored(nil); err == nil {
		t.Error("a pool short of a full cycle must error")
	}
	if scored.cur.Cycle != 2 {
		t.Errorf("failed cycles advanced the labeler to cycle %d", scored.cur.Cycle)
	}
}
