package core

import (
	"testing"

	"nautilus/internal/obs"
	"nautilus/internal/opt"
)

// eq5PerRecord recomputes the plan's per-record costs directly from the
// node-level actions and profiled layer costs — Equation 5 from first
// principles, independent of the Plan accessor methods the trainer and the
// conformance report cost through.
func eq5PerRecord(p *opt.Plan) (trainFLOPs, forwardFLOPs, loadBytes int64) {
	for _, n := range p.Model().Nodes() {
		layer := p.Prof.Layer(n)
		switch p.Action(n) {
		case opt.Computed:
			trainFLOPs += layer.CompFLOPs
			forwardFLOPs += layer.ForwardFLOPs
		case opt.Loaded:
			if !n.IsInput() {
				loadBytes += layer.OutBytes
			}
		}
	}
	return
}

// TestConformanceMatchesCostModel is the cost-model conformance property:
// after planning and actually executing a workload, each group's metered
// record counts are exactly the epochs × training records and validation
// records of the cycles it trained in, its predicted totals are the plan's
// Equation 5 recomputation expanded by those counts, the live trainer.*
// counters sum to the same totals, and the replayed live-tensor peak stays
// under the analytical B_mem estimate the optimizer planned against.
func TestConformanceMatchesCostModel(t *testing.T) {
	for _, approach := range []Approach{Nautilus, MatAll} {
		approach := approach
		t.Run(string(approach), func(t *testing.T) {
			items, mm := tinyWorkload(t)
			cfg := DefaultConfig(t.TempDir())
			cfg.Approach = approach
			cfg.HW = miniHW
			cfg.MaxRecords = 600
			tr := obs.New(nil) // no sink: registry + conformance only
			cfg.Obs = tr
			ms, err := New(items, mm, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ms.Close()
			wantTrain, wantValid := map[string]int64{}, map[string]int64{}
			for _, snap := range snapshots(t, 2) {
				if _, err := ms.Fit(snap); err != nil {
					t.Fatal(err)
				}
				for _, g := range ms.Planner().Plan().Groups {
					wantTrain[g.Name()] += int64(g.Epochs() * snap.TrainSize())
					wantValid[g.Name()] += int64(snap.ValidSize())
				}
			}

			byName := map[string]*opt.FusedGroup{}
			for _, g := range ms.Planner().Plan().Groups {
				byName[g.Name()] = g
			}
			reports := tr.Conformance().Report()
			if len(reports) != len(byName) {
				t.Fatalf("%d conformance groups, want %d", len(reports), len(byName))
			}
			var sumFLOPs, sumLoad int64
			for _, r := range reports {
				g := byName[r.Group]
				if g == nil {
					t.Fatalf("conformance group %q not in plan", r.Group)
				}
				if r.TrainRecords == 0 || r.TrainRecords != wantTrain[r.Group] {
					t.Errorf("group %s: metered %d training records, epochs x train size over its cycles is %d",
						r.Group, r.TrainRecords, wantTrain[r.Group])
				}
				if r.ValidRecords != wantValid[r.Group] {
					t.Errorf("group %s: metered %d validation records, valid size over its cycles is %d",
						r.Group, r.ValidRecords, wantValid[r.Group])
				}

				trainFLOPs, forwardFLOPs, loadBytes := eq5PerRecord(g.Plan)
				wantFLOPs := trainFLOPs*r.TrainRecords + forwardFLOPs*r.ValidRecords
				if r.PredictedComputeFLOPs != wantFLOPs {
					t.Errorf("group %s: predicted %d FLOPs, Eq. 5 recomputation %d",
						r.Group, r.PredictedComputeFLOPs, wantFLOPs)
				}
				wantLoad := loadBytes * (r.TrainRecords + r.ValidRecords)
				if r.PredictedLoadBytes != wantLoad {
					t.Errorf("group %s: predicted %d load bytes, plan read volume %d",
						r.Group, r.PredictedLoadBytes, wantLoad)
				}
				sumFLOPs += wantFLOPs
				sumLoad += wantLoad

				// MAT-ALL loads at the frontier, so its plans must actually
				// read materialized bytes for the property to be non-vacuous.
				if approach == MatAll && wantLoad == 0 {
					t.Errorf("group %s: MAT-ALL plan loads nothing", r.Group)
				}

				// Peak-memory replay: the metered live-tensor high-water mark
				// must respect the analytical bound the optimizer planned with.
				if r.ActualPeakMemoryBytes <= 0 {
					t.Errorf("group %s: no peak memory metered", r.Group)
				}
				if r.ActualPeakMemoryBytes > g.PeakMemBytes {
					t.Errorf("group %s: metered peak %d exceeds analytical bound %d",
						r.Group, r.ActualPeakMemoryBytes, g.PeakMemBytes)
				}
			}
			// The live counters are stepped batch by batch; the Eq. 5 totals
			// above are per-record costs times whole-run counts.
			reg := tr.Registry()
			if got := reg.Counter("trainer.compute_flops").Value(); got != sumFLOPs {
				t.Errorf("trainer.compute_flops = %d, Eq. 5 over every group %d", got, sumFLOPs)
			}
			if got := reg.Counter("trainer.load_bytes").Value(); got != sumLoad {
				t.Errorf("trainer.load_bytes = %d, plan read volume over every group %d", got, sumLoad)
			}
		})
	}
}
