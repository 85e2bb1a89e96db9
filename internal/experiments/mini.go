package experiments

import (
	"os"

	"nautilus/internal/core"
	"nautilus/internal/obs"
	"nautilus/internal/profile"
	"nautilus/internal/workloads"
)

// MiniHardware returns a cost-model profile proportioned for real CPU
// execution of mini-scale models: a few GFLOP/s of effective compute
// against SSD-class storage, i.e. ~10 FLOPs of compute per byte of disk
// bandwidth. The optimizer's load-vs-recompute decisions at mini scale
// then mirror the regime paper-scale models occupy on a GPU.
func MiniHardware() profile.Hardware {
	return profile.Hardware{FLOPSThroughput: 5e9, DiskThroughput: 500e6, WorkspaceBytes: 256 << 20}
}

// RunMini is the one real-training runner: it runs spec at mini scale once
// per approach through core.Run and returns the reports in approach order.
// Each run gets a fresh instance and its own work directory, removed when
// the run ends, plans against MiniHardware with r = 600 expected records,
// and uses seed for both the data pool and training. cycles caps the
// labeling cycles (0: the workload's whole schedule); tr, when non-nil,
// instruments every run.
func RunMini(spec workloads.Spec, approaches []core.Approach, seed int64, cycles int, tr *obs.Tracer) ([]*core.RunReport, error) {
	reports := make([]*core.RunReport, len(approaches))
	for i, approach := range approaches {
		rep, err := runMini(spec, approach, seed, cycles, tr)
		if err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	return reports, nil
}

func runMini(spec workloads.Spec, approach core.Approach, seed int64, cycles int, tr *obs.Tracer) (*core.RunReport, error) {
	inst, err := spec.Build(workloads.Mini, MiniHardware())
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "nautilus-mini-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := core.DefaultConfig(dir)
	cfg.Approach = approach
	cfg.HW = MiniHardware()
	cfg.MaxRecords = 600
	cfg.Seed = seed
	cfg.Obs = tr
	return core.Run(inst, cfg, seed, cycles)
}
