// Package profile implements the Nautilus Profiler and cost model
// (paper Sections 3 and 4.1). It derives, for every layer of a candidate
// model, the four per-record metrics the optimizer consumes:
//
//	c_comp(l) — training computation cost in FLOPs (forward ×1 for
//	            materializable layers, ×2 for frozen layers on the gradient
//	            path, ×3 for trainable layers)
//	s_disk(l) — output size on disk in bytes
//	c_load(l) — cost of loading the output from disk, expressed in missed
//	            compute FLOPs (read time × compute throughput)
//	s_mem(l)  — output size in memory, summing all internal activations for
//	            composite layers (Section 4.3.3)
//
// Shapes and FLOPs are derived analytically from the layer configs, which
// is exactly the information TensorFlow's profiler gave the original
// system; a real probe-batch cross-check lives in the tests.
package profile

import (
	"fmt"

	"nautilus/internal/graph"
	"nautilus/internal/tensor"
)

// Hardware holds the system configuration values of the optimizer: compute
// throughput, disk throughput, and per-model workspace memory. The defaults
// match the paper's experimental setup (Section 5): 6 TFLOP/s (50% of a
// Titan X's peak) and 500 MB/s SSD reads, 1 GB workspace.
type Hardware struct {
	FLOPSThroughput float64 // FLOP/s
	DiskThroughput  float64 // bytes/s
	WorkspaceBytes  int64   // DL-framework workspace memory per model
	// Workers caps kernel workers *and* concurrently trained fused groups
	// (tensor.SetMaxWorkers; exec.Trainer.TrainGroups runs one group per
	// slot). 0 keeps the ambient default: the NAUTILUS_WORKERS environment
	// variable if set, else all logical cores.
	Workers int
}

// DefaultHardware returns the paper's configured hardware profile.
func DefaultHardware() Hardware {
	return Hardware{
		FLOPSThroughput: 6e12,
		DiskThroughput:  500e6,
		WorkspaceBytes:  1 << 30,
	}
}

// LoadFLOPs converts a byte count into the equivalent missed compute FLOPs,
// the unit c_load is expressed in.
func (h Hardware) LoadFLOPs(bytes int64) int64 {
	return int64(float64(bytes) / h.DiskThroughput * h.FLOPSThroughput)
}

// Seconds converts a FLOPs quantity into wall-clock seconds at the
// configured compute throughput.
func (h Hardware) Seconds(flops int64) float64 {
	return float64(flops) / h.FLOPSThroughput
}

// IOSeconds converts a byte volume into wall-clock seconds at the
// configured disk throughput — the I/O-side twin of Seconds, used when
// reports attribute time between compute and load.
func (h Hardware) IOSeconds(bytes int64) float64 {
	return float64(bytes) / h.DiskThroughput
}

// LayerProfile carries the per-record cost-model metrics of one node.
type LayerProfile struct {
	Node     *graph.Node
	OutShape []int

	ForwardFLOPs   int64 // raw forward-pass FLOPs
	CompFLOPs      int64 // c_comp with the 1×/2×/3× training multiplier
	OutBytes       int64 // s_disk
	LoadFLOPs      int64 // c_load
	MemBytes       int64 // s_mem (composite-aware)
	Materializable bool
}

// ModelProfile aggregates the profiling information of one candidate model.
type ModelProfile struct {
	Model  *graph.Model
	Layers map[*graph.Node]*LayerProfile
	Shapes map[*graph.Node][]int
	Sigs   map[*graph.Node]graph.Signature
	HW     Hardware
}

// Profile computes the full profile of a model. It fails if the model does
// not validate.
func Profile(m *graph.Model, hw Hardware) (*ModelProfile, error) {
	shapes, err := m.Validate()
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	mat := m.Materializable()
	sigs := m.ExprSignatures()
	needGrad := gradPath(m)

	p := &ModelProfile{
		Model:  m,
		Layers: make(map[*graph.Node]*LayerProfile, m.NumNodes()),
		Shapes: shapes,
		Sigs:   sigs,
		HW:     hw,
	}
	for _, n := range m.Nodes() {
		in := make([][]int, len(n.Parents))
		for i, par := range n.Parents {
			in[i] = shapes[par]
		}
		outShape := shapes[n]
		outBytes := int64(tensor.NumElems(outShape)) * 4

		var fwd int64
		if !n.IsInput() {
			fwd = n.Layer.FLOPsPerRecord(in)
		}
		var comp int64
		switch {
		case n.IsInput():
			comp = 0
		case !n.Frozen():
			if pf, ok := n.Layer.(graph.PartialFLOPs); ok {
				// Partially trainable (adapter blocks): forward + input
				// gradients through the whole block, parameter gradients
				// only for the trainable sub-layers.
				comp = 2*fwd + pf.TrainableFLOPsPerRecord(in)
			} else {
				comp = 3 * fwd // forward + input gradient + parameter gradient
			}
		case needGrad[n]:
			comp = 2 * fwd // forward + input gradient only
		default:
			comp = fwd
		}

		var memBytes int64
		if n.IsInput() {
			memBytes = outBytes
		} else {
			memBytes = graph.ActivationBytesPerRecord(n, in)
		}

		p.Layers[n] = &LayerProfile{
			Node:           n,
			OutShape:       outShape,
			ForwardFLOPs:   fwd,
			CompFLOPs:      comp,
			OutBytes:       outBytes,
			LoadFLOPs:      hw.LoadFLOPs(outBytes),
			MemBytes:       memBytes,
			Materializable: mat[n],
		}
	}
	return p, nil
}

// gradPath marks nodes whose backward pass must run when the full model
// trains: a node is on the gradient path if it is trainable or any ancestor
// is. (Materializable nodes are never on it.)
func gradPath(m *graph.Model) map[*graph.Node]bool {
	need := map[*graph.Node]bool{}
	for _, n := range m.Nodes() {
		v := !n.Frozen()
		if !v {
			for _, p := range n.Parents {
				if need[p] {
					v = true
					break
				}
			}
		}
		need[n] = v
	}
	return need
}

// TotalCompFLOPs returns the per-record training cost of the unmodified
// model: the sum of c_comp over all layers (what Current Practice pays).
func (p *ModelProfile) TotalCompFLOPs() int64 {
	var total int64
	for _, lp := range p.Layers {
		total += lp.CompFLOPs
	}
	return total
}

// NonMaterializableCompFLOPs returns the per-record cost of only the
// non-materializable layers — the irreducible part of training, which the
// theoretical-speedup bound (Equation 11) divides by.
func (p *ModelProfile) NonMaterializableCompFLOPs() int64 {
	var total int64
	for _, lp := range p.Layers {
		if !lp.Materializable {
			total += lp.CompFLOPs
		}
	}
	return total
}

// ParamBytes returns the model's total parameter bytes (all, trainable).
func (p *ModelProfile) ParamBytes() (total, trainable int64) {
	t, tr := p.Model.ParamCount()
	return t * 4, tr * 4
}
