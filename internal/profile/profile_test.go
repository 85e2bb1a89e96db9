package profile

import (
	"math"
	"testing"

	"nautilus/internal/graph"
	"nautilus/internal/layers"
)

// chain builds frozen d1 → frozen d2 → trainable d3.
func chain() *graph.Model {
	m := graph.NewModel("p")
	in := m.AddInput("in", 8)
	d1 := m.AddNode("d1", layers.NewDense(8, 8, layers.ActNone, 1), in)
	_ = d1
	d2 := m.AddNode("d2", layers.NewDense(8, 8, layers.ActNone, 2), d1)
	d3 := m.AddNode("d3", layers.NewDense(8, 4, layers.ActNone, 3), d2)
	d3.Trainable = true
	m.SetOutputs(d3)
	return m
}

func TestProfileCostMultipliers(t *testing.T) {
	m := chain()
	p, err := Profile(m, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	d1 := p.Layer(m.Node("d1"))
	d2 := p.Layer(m.Node("d2"))
	d3 := p.Layer(m.Node("d3"))
	// d1, d2 are materializable (frozen, materializable parents): 1×.
	if d1.CompFLOPs != d1.ForwardFLOPs || d2.CompFLOPs != d2.ForwardFLOPs {
		t.Error("materializable layers must cost 1× forward")
	}
	if !d1.Materializable || !d2.Materializable {
		t.Error("frozen chain should be materializable")
	}
	// d3 trainable: 3×.
	if d3.CompFLOPs != 3*d3.ForwardFLOPs {
		t.Errorf("trainable layer cost %d, want 3×%d", d3.CompFLOPs, d3.ForwardFLOPs)
	}
	if d3.Materializable {
		t.Error("trainable layer must not be materializable")
	}
}

func TestProfileFrozenOnGradPathCosts2x(t *testing.T) {
	// trainable d1 → frozen d2 → trainable d3: d2 must pay 2×.
	m := graph.NewModel("p2")
	in := m.AddInput("in", 8)
	d1 := m.AddNode("d1", layers.NewDense(8, 8, layers.ActNone, 1), in)
	d1.Trainable = true
	d2 := m.AddNode("d2", layers.NewDense(8, 8, layers.ActNone, 2), d1)
	d3 := m.AddNode("d3", layers.NewDense(8, 4, layers.ActNone, 3), d2)
	d3.Trainable = true
	m.SetOutputs(d3)
	p, err := Profile(m, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	lp := p.Layer(d2)
	if lp.CompFLOPs != 2*lp.ForwardFLOPs {
		t.Errorf("frozen-on-grad-path cost %d, want 2×%d", lp.CompFLOPs, lp.ForwardFLOPs)
	}
	if lp.Materializable {
		t.Error("frozen layer below a trainable one is not materializable")
	}
}

func TestProfileLoadCostMatchesHardware(t *testing.T) {
	m := chain()
	hw := Hardware{FLOPSThroughput: 1e12, DiskThroughput: 1e9, WorkspaceBytes: 1}
	p, err := Profile(m, hw)
	if err != nil {
		t.Fatal(err)
	}
	d1 := p.Layer(m.Node("d1"))
	// 8 floats = 32 bytes; 32/1e9 s × 1e12 FLOP/s = 32000 FLOPs.
	if d1.OutBytes != 32 {
		t.Fatalf("out bytes = %d", d1.OutBytes)
	}
	if d1.LoadFLOPs != 32000 {
		t.Errorf("load FLOPs = %d, want 32000", d1.LoadFLOPs)
	}
}

func TestProfileCompositeMemoryExceedsOutput(t *testing.T) {
	m := graph.NewModel("c")
	in := m.AddInput("in", 4, 16)
	blk := m.AddNode("blk", layers.NewTransformerBlock(layers.TransformerBlockConfig{
		Seq: 4, Dim: 16, Heads: 2, FFN: 32, Seed: 9,
	}), in)
	m.SetOutputs(blk)
	p, err := Profile(m, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	lp := p.Layer(blk)
	if lp.MemBytes <= lp.OutBytes {
		t.Errorf("composite s_mem %d should exceed s_disk %d (internal activations)", lp.MemBytes, lp.OutBytes)
	}
}

func TestAggregates(t *testing.T) {
	m := chain()
	p, err := Profile(m, DefaultHardware())
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCompFLOPs() <= p.NonMaterializableCompFLOPs() {
		t.Error("total must exceed irreducible for a frozen-trunk model")
	}
	var total, trainable int64
	for id := int32(0); int(id) < p.NumParams(); id++ {
		total += p.Param(id).Bytes
		if p.Param(id).Trainable {
			trainable += p.Param(id).Bytes
		}
	}
	if total <= trainable || trainable != (8*4+4)*4 {
		t.Errorf("param bytes total=%d trainable=%d", total, trainable)
	}
}

func TestHardwareSeconds(t *testing.T) {
	hw := Hardware{FLOPSThroughput: 2e12}
	if got := hw.Seconds(4e12); got != 2 {
		t.Errorf("Seconds = %v, want 2", got)
	}
}

func TestHardwareIOSeconds(t *testing.T) {
	hw := Hardware{FLOPSThroughput: 2e12, DiskThroughput: 500e6}
	if got := hw.IOSeconds(1e9); got != 2 {
		t.Errorf("IOSeconds = %v, want 2", got)
	}
	// IOSeconds and Seconds∘LoadFLOPs express the same time: loading b
	// bytes takes as long as the compute those FLOP-equivalents displace.
	b := int64(123456789)
	if got, want := hw.Seconds(hw.LoadFLOPs(b)), hw.IOSeconds(b); math.Abs(got-want) > 1e-9*want {
		t.Errorf("Seconds(LoadFLOPs(b)) = %v, IOSeconds(b) = %v", got, want)
	}
}

func TestProfileInvalidModel(t *testing.T) {
	m := graph.NewModel("bad")
	m.AddInput("in", 2)
	if _, err := Profile(m, DefaultHardware()); err == nil {
		t.Error("invalid model should not profile")
	}
}

// TestHardwareWorkersDefault pins the contract that the default profile
// does not cap kernel parallelism: Workers == 0 defers to the ambient
// tensor-package default (NAUTILUS_WORKERS or all logical cores), which
// core.New leaves untouched.
func TestHardwareWorkersDefault(t *testing.T) {
	if w := DefaultHardware().Workers; w != 0 {
		t.Fatalf("DefaultHardware().Workers = %d, want 0 (no cap)", w)
	}
	hw := DefaultHardware()
	hw.Workers = 4
	if hw.Workers != 4 {
		t.Fatal("Workers must be settable per configuration")
	}
}
