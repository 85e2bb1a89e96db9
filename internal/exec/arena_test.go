package exec

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nautilus/internal/graph"
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
// per batch, feeds prefetched into their own scopes — gives exactly the
// accuracy and loss bits and the checkpoint bytes of heap allocation on one
// slot without prefetch.
func TestArenaTrainingBitIdentical(t *testing.T) {
	snap := nerSnapshot(t, 2)
	for _, ap := range arenaApproaches {
		t.Run(ap.name, func(t *testing.T) {
			run := func(arena *tensor.Arena, slots int) (accs []string, ckpts map[string][]byte) {
				withSlots(t, slots)
				items, mm := buildWorkload(t, 3)
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
					if err := mz.SyncSplit(Train, snap.TrainX); err != nil {
						t.Fatal(err)
					}
					if err := mz.SyncSplit(Valid, snap.ValidX); err != nil {
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
				res, err := trainer.TrainGroups(groups, snap, 1<<40, func(gi int, g *opt.FusedGroup) error {
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
