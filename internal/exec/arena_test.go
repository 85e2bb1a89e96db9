package exec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nautilus/internal/data"
	"nautilus/internal/graph"
	"nautilus/internal/layers"
	"nautilus/internal/models"
	"nautilus/internal/opt"
	"nautilus/internal/tensor"
	"nautilus/internal/train"
)

// arenaApproaches mirrors core's approach table at this layer: the
// materialized set V each plan sees, the reuse policy, whether FUSE OPT
// groups the candidates, and whether checkpoints hold every parameter.
var arenaApproaches = []struct {
	name      string
	mat       string // "none", "all" (every materializable layer) or "opt" (MAT OPT)
	plan      opt.PlanPolicy
	fuse      bool
	fullCkpts bool
}{
	{"current_practice", "none", opt.UnmodifiedPlan, false, true},
	{"mat_all", "all", opt.LoadFrontierPlan, false, false},
	{"nautilus", "opt", opt.ReusePlan, true, false},
	{"nautilus_no_fuse", "opt", opt.ReusePlan, false, false},
	{"nautilus_no_mat", "none", opt.ReusePlan, true, false},
}

// TestArenaTrainingBitIdentical verifies the arena is purely a physical
// optimization, for every approach: materializing and training with tensor
// recycling — TrainGroups on two slots, each group's step scope recycled
// per batch and each activation freed into it at its last use, feeds
// prefetched into their own scopes, the tape keeping fresh gradients
// instead of copying them — gives exactly the accuracy and loss bits and
// the checkpoint bytes of heap allocation on one slot without prefetch,
// where every first gradient is copied. One BERT candidate reads the trunk
// through an output that aliases its input, so an early free of a shared
// buffer shows too. The resnet_ legs train ResNet-mini fine-tuning
// candidates (FTU), where the tape keeps most first gradients as the
// layers return them and pointwise convs keep their input as their column
// matrix.
func TestArenaTrainingBitIdentical(t *testing.T) {
	sets := []struct {
		prefix string
		cands  func(testing.TB) []*graph.Model
		snap   data.Snapshot
	}{
		{"", func(t testing.TB) []*graph.Model { return append(bertCandidates(t, 3), aliasedCandidate(t)) }, nerSnapshot(t, 2)},
		{"resnet_", resnetCandidates, imageSnapshot(t)},
	}
	for _, set := range sets {
		for _, ap := range arenaApproaches {
			t.Run(set.prefix+ap.name, func(t *testing.T) {
				run := func(arena *tensor.Arena, slots int) (accs []string, ckpts map[string][]byte) {
					withSlots(t, slots)
					items, mm := workloadOf(t, set.cands(t)...)
					sigs := map[graph.Signature]bool{}
					switch ap.mat {
					case "all":
						for _, n := range mm.MaterializableNodes() {
							sigs[mm.Sig(n)] = true
						}
					case "opt":
						res, err := opt.OptimizeMaterialization(mm, items, opt.MatConfig{DiskBudgetBytes: 1 << 40, MaxRecords: 200})
						if err != nil {
							t.Fatal(err)
						}
						sigs = res.Sigs
					}
					store, _ := newTestStore(t)
					mz, err := NewMaterializer(store, mm, sigs)
					if err != nil {
						t.Fatal(err)
					}
					if mz != nil {
						mz.Arena = arena
						if err := mz.SyncSplit(Train, set.snap.TrainX); err != nil {
							t.Fatal(err)
						}
						if err := mz.SyncSplit(Valid, set.snap.ValidX); err != nil {
							t.Fatal(err)
						}
					}
					var groups []*opt.FusedGroup
					if ap.fuse {
						groups = fuse(t, items, sigs)
					} else {
						for _, it := range items {
							g, err := opt.BuildGroup([]opt.WorkItem{it}, sigs, ap.plan, opt.AdamSlotBytes)
							if err != nil {
								t.Fatal(err)
							}
							groups = append(groups, g)
						}
					}
					trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 7, Arena: arena, Prefetch: arena != nil}
					dir := t.TempDir()
					res, err := trainer.TrainGroups(groups, set.snap, 1<<40, func(gi int, g *opt.FusedGroup) error {
						return trainer.Checkpoint(g, filepath.Join(dir, fmt.Sprintf("g%d.nckp", gi)), ap.fullCkpts)
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, branches := range res {
						for _, r := range branches {
							accs = append(accs, fmt.Sprintf("%s %x %x %x", r.Item.Model.Name, math.Float64bits(r.ValAcc), math.Float64bits(r.ValLoss), math.Float64bits(r.FinalLoss)))
						}
					}
					ckpts = map[string][]byte{}
					for gi := range groups {
						name := fmt.Sprintf("g%d.nckp", gi)
						if ckpts[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
							t.Fatal(err)
						}
					}
					return accs, ckpts
				}
				wantAccs, wantCkpts := run(nil, 1)
				arena := tensor.NewArena()
				gotAccs, gotCkpts := run(arena, 2)
				if !reflect.DeepEqual(gotAccs, wantAccs) {
					t.Errorf("arena changed results:\n got %v\nwant %v", gotAccs, wantAccs)
				}
				if !reflect.DeepEqual(gotCkpts, wantCkpts) {
					t.Errorf("arena changed checkpoint bytes")
				}
				if st := arena.Stats(); st.Hits == 0 {
					t.Errorf("the arena served no recycled buffer: %+v", st)
				}
			})
		}
	}
}

// resnetCandidates returns two fine-tuning candidates over one ResNet-mini
// hub, training its top block and its top two.
func resnetCandidates(t testing.TB) []*graph.Model {
	t.Helper()
	hub := models.NewResNetHub(models.ResNetMini())
	var ms []*graph.Model
	for i := 0; i < 2; i++ {
		m, err := hub.FineTuneModel(fmt.Sprintf("r%d", i), 1+i, 2, int64(600+i))
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// imageSnapshot labels two cycles of synthetic ResNet-mini images.
func imageSnapshot(t testing.TB) data.Snapshot {
	t.Helper()
	pool := data.SynthImages(data.ImageConfig{Records: 120, H: 16, W: 16, C: 3, Seed: 77})
	lab := data.NewLabeler(pool, 20, 16)
	var snap data.Snapshot
	for i := 0; i < 2; i++ {
		snap, _, _ = lab.NextCycle()
	}
	return snap
}

// aliasedCandidate is a feature-transfer candidate whose head reads the
// last hidden layer through an identity Activation, which returns its input:
// the trunk's output buffer must outlive its own last use until the head's
// backward step has read the alias.
func aliasedCandidate(t testing.TB) *graph.Model {
	t.Helper()
	src := bertCandidates(t, 1)[0]
	m := graph.NewModel("aliased")
	twin := map[*graph.Node]*graph.Node{}
	feat := src.Node("head_block").Parents[0]
	for _, n := range src.Nodes() {
		parents := make([]*graph.Node, len(n.Parents))
		for i, p := range n.Parents {
			parents[i] = twin[p]
		}
		twin[n] = m.AddNode(n.Name, n.Layer, parents...)
		twin[n].Trainable = n.Trainable
		if n == feat {
			twin[n] = m.AddNode("feat_ident", layers.NewActivation(layers.ActNone), twin[n])
		}
	}
	m.SetOutputs(twin[src.Outputs[0]])
	return m
}

// TestArenaSteadyStateAllocs asserts the recycling actually takes hold:
// after a warmup pass over the group, a second identical pass is served
// almost entirely from the pool — steady-state buffer makes per step drop
// to ~zero.
func TestArenaSteadyStateAllocs(t *testing.T) {
	items, _ := buildWorkload(t, 1)
	snap := nerSnapshot(t, 2)
	store, _ := newTestStore(t)
	arena := tensor.NewArena()
	trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 3, Arena: arena, Prefetch: true}
	g := singleton(t, items[0], nil)

	if _, err := trainer.TrainGroup(g, snap); err != nil {
		t.Fatal(err)
	}
	warm := arena.Stats()
	if warm.Gets == 0 {
		t.Fatal("arena saw no traffic; scope plumbing is broken")
	}
	if warm.Hits == 0 {
		t.Fatal("no buffer was ever recycled during warmup")
	}

	if _, err := trainer.TrainGroup(g, snap); err != nil {
		t.Fatal(err)
	}
	st := arena.Stats()
	gets := st.Gets - warm.Gets
	misses := st.Misses - warm.Misses
	if gets == 0 {
		t.Fatal("second pass saw no arena traffic")
	}
	// The pool was fully primed by the first pass; the second should miss
	// (allocate fresh memory) on well under 1% of its requests.
	if misses*100 > gets {
		t.Fatalf("steady-state miss rate too high: %d misses / %d gets", misses, gets)
	}
}

// benchTrainGroupAlloc measures a full training pass with allocation
// reporting, pooled vs unpooled.
func benchTrainGroupAlloc(b *testing.B, arena *tensor.Arena) {
	items, _ := buildWorkload(b, 1)
	snap := nerSnapshot(b, 2)
	store, _ := newTestStore(b)
	g := singleton(b, items[0], nil)
	trainer := &Trainer{Store: store, Loss: train.SoftmaxCrossEntropy{}, Seed: 1, Arena: arena, Prefetch: true}
	// Warm the pool so steady state is what gets measured.
	if _, err := trainer.TrainGroup(g, snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trainer.TrainGroup(g, snap); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainStepUnpooled(b *testing.B) {
	benchTrainGroupAlloc(b, nil)
}

func BenchmarkTrainStepPooled(b *testing.B) {
	benchTrainGroupAlloc(b, tensor.NewArena())
}
