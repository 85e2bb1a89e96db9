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
	"math"

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
// the unit c_load is expressed in. An extreme throughput ratio saturates at
// the int64 bounds instead of wrapping around to a negative cost.
func (h Hardware) LoadFLOPs(bytes int64) int64 {
	f := float64(bytes) / h.DiskThroughput * h.FLOPSThroughput
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	}
	return int64(f)
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
	Sig      graph.Signature // expression signature (Definitions 4.1–4.3)

	ForwardFLOPs   int64 // raw forward-pass FLOPs
	CompFLOPs      int64 // c_comp with the 1×/2×/3× training multiplier
	OutBytes       int64 // s_disk
	LoadFLOPs      int64 // c_load
	MemBytes       int64 // s_mem (composite-aware)
	Materializable bool
	Params         []int32 // ModelProfile.Param ids of the layer's parameters
}

// ParamProfile is one distinct parameter of a profiled model.
type ParamProfile struct {
	Param     *graph.Param
	Bytes     int64
	Trainable bool // some trainable node updates it (graph.Model.TrainableParams)
}

// ModelProfile aggregates the profiling information of one candidate model.
type ModelProfile struct {
	Model *graph.Model
	// Layers holds one entry per node, parallel to Model.Nodes(): the facts
	// of node n are Layers[n.Index()] (Layer, Sig and Shape read them).
	Layers []LayerProfile
	HW     Hardware

	// params is the parameter table (NumParams, Param): the model's distinct
	// parameters in first-use order, one entry however many nodes hold the
	// parameter, so memory accounting counts it once. paramID indexes it.
	params  []ParamProfile
	paramID map[*graph.Param]int32
}

// NumParams is the number of distinct parameters the model's layers hold.
func (p *ModelProfile) NumParams() int { return len(p.params) }

// Param returns entry id of the parameter table, 0 ≤ id < NumParams().
func (p *ModelProfile) Param(id int32) *ParamProfile { return &p.params[id] }

// intern returns q's id in the table, adding q if no entry holds its
// parameter; a trainable q makes the entry trainable.
func (p *ModelProfile) intern(q ParamProfile) int32 {
	id, ok := p.paramID[q.Param]
	switch {
	case !ok:
		id = int32(len(p.params))
		p.paramID[q.Param] = id
		p.params = append(p.params, q)
	case q.Trainable:
		p.params[id].Trainable = true
	}
	return id
}

// Layer returns the profile of one of the model's nodes.
func (p *ModelProfile) Layer(n *graph.Node) *LayerProfile { return &p.Layers[n.Index()] }

// Sig returns a node's expression signature.
func (p *ModelProfile) Sig(n *graph.Node) graph.Signature { return p.Layers[n.Index()].Sig }

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

	held := 0 // parameters over all nodes, shared ones counted per holder
	for _, n := range m.Nodes() {
		held += len(n.Layer.Params())
	}
	p := &ModelProfile{
		Model:   m,
		Layers:  make([]LayerProfile, m.NumNodes()),
		params:  make([]ParamProfile, 0, held),
		HW:      hw,
		paramID: make(map[*graph.Param]int32, held),
	}
	ids := make([]int32, 0, held) // backing array of every LayerProfile.Params
	for i, n := range m.Nodes() {
		in := make([][]int, len(n.Parents))
		for j, par := range n.Parents {
			in[j] = shapes[par.Index()]
		}
		outShape := shapes[i]
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
		case needGrad[i]:
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

		first := len(ids)
		for _, q := range n.Layer.Params() {
			ids = append(ids, p.intern(ParamProfile{Param: q, Bytes: q.Bytes()}))
		}
		if n.Trainable { // what the node trains, as graph.Model.TrainableParams has it
			trains := n.Layer.Params()
			if pt, ok := n.Layer.(graph.PartialTrainer); ok {
				trains = pt.TrainableSubset()
			}
			for _, q := range trains { // a subset of Params: interned above
				p.intern(ParamProfile{Param: q, Bytes: q.Bytes(), Trainable: true})
			}
		}

		p.Layers[i] = LayerProfile{
			Node:           n,
			OutShape:       outShape,
			Sig:            sigs[i],
			ForwardFLOPs:   fwd,
			CompFLOPs:      comp,
			OutBytes:       outBytes,
			LoadFLOPs:      hw.LoadFLOPs(outBytes),
			MemBytes:       memBytes,
			Materializable: mat[i],
			Params:         ids[first:len(ids):len(ids)],
		}
	}
	return p, nil
}

// Deriver builds the profile of a graph merged from profiled models without
// re-profiling it: every merged node's facts are those of its first source
// node in a member's profile (mmg.BuildProfiled). Only parameter ids cannot
// be copied: they index a per-model table, so each is interned into the
// merged table by parameter — a parameter is counted once, and is trainable
// if any member trains it.
type Deriver struct{ p *ModelProfile }

// NewDeriver starts the profile of merged (about nodes nodes) from its first member.
func NewDeriver(merged *graph.Model, first *ModelProfile, nodes int) *Deriver {
	n := first.NumParams()
	return &Deriver{p: &ModelProfile{Model: merged, Layers: make([]LayerProfile, 0, nodes), HW: first.HW, params: make([]ParamProfile, 0, n), paramID: make(map[*graph.Param]int32, n)}}
}

// Profile returns the derived profile; the Deriver must not be used after.
func (d *Deriver) Profile() *ModelProfile { return d.p }

// Add appends the profile of merged node n from lp, its first source node's
// in member src; c_load is recomputed at the merged profile's hardware.
func (d *Deriver) Add(n *graph.Node, src *ModelProfile, lp *LayerProfile) {
	p := d.p
	p.Layers = append(p.Layers, *lp)
	out := &p.Layers[len(p.Layers)-1]
	out.Node = n
	out.LoadFLOPs = p.HW.LoadFLOPs(out.OutBytes)
	if len(lp.Params) == 0 {
		return
	}
	out.Params = make([]int32, len(lp.Params))
	for i, sid := range lp.Params {
		out.Params[i] = p.intern(*src.Param(sid))
	}
}

// gradPath marks nodes (by index) whose backward pass must run when the
// full model trains: a node is on the gradient path if it is trainable or
// any ancestor is. (Materializable nodes are never on it.)
func gradPath(m *graph.Model) []bool {
	need := make([]bool, m.NumNodes())
	for i, n := range m.Nodes() {
		v := !n.Frozen()
		if !v {
			for _, p := range n.Parents {
				if need[p.Index()] {
					v = true
					break
				}
			}
		}
		need[i] = v
	}
	return need
}

// TotalCompFLOPs returns the per-record training cost of the unmodified
// model: the sum of c_comp over all layers (what Current Practice pays).
func (p *ModelProfile) TotalCompFLOPs() int64 {
	var total int64
	for i := range p.Layers {
		total += p.Layers[i].CompFLOPs
	}
	return total
}

// NonMaterializableCompFLOPs returns the per-record cost of only the
// non-materializable layers — the irreducible part of training, which the
// theoretical-speedup bound (Equation 11) divides by.
func (p *ModelProfile) NonMaterializableCompFLOPs() int64 {
	var total int64
	for i := range p.Layers {
		if lp := &p.Layers[i]; !lp.Materializable {
			total += lp.CompFLOPs
		}
	}
	return total
}
