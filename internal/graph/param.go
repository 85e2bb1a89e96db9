// Package graph implements the DL model representation used throughout
// Nautilus: a DAG of layers (paper Definition 2.2) with frozen flags
// (Definition 2.3), materializable-layer analysis (Definition 2.4),
// expression identity signatures (Definition 4.3) that power multi-model
// merging, and the execution engine. One liveness table (Liveness: the
// step order of the Figure 5 augmented graph and each tensor's last use)
// serves both the planner's peak-memory estimate and the engine: Compile
// turns a model into a Program, and a Tape runs it on slices by position,
// freeing every activation into the step scope at its last use and
// metering its live bytes against the same table.
package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"

	"nautilus/internal/tensor"
)

// Param is a (possibly lazily allocated) parameter tensor. Profiling and
// plan optimization at paper scale only need shapes and identity, so the
// backing data is materialized on first access rather than at model build
// time; the deterministic seed guarantees that two Params with equal
// (seed, shape, init kind) hold bit-identical values once materialized,
// which is what makes seed-based identity (Definition 4.3) sound.
//
// First-use initialization is once-safe: frozen params are shared between
// fused groups that train concurrently, so any number of goroutines may
// call Tensor at once and all see the one initialized tensor. Reset and
// SetData are not synchronized against readers; they belong to the single
// goroutine that owns the model between training runs.
type Param struct {
	Name  string
	Shape []int

	seed int64
	kind initKind
	std  float64 // normal std or uniform limit, per kind

	initMu sync.Mutex // serializes the first-use initializer
	data   atomic.Pointer[tensor.Tensor]
	// restored marks parameters whose data was replaced via SetData
	// (checkpoint restore); their identity then derives from the actual
	// values rather than the init spec.
	restored bool

	// Custom initializers carry a spec tag that joins the fingerprint in
	// place of the builtin kind, plus the init function itself.
	tag string
	fn  InitFunc
}

// InitFunc deterministically fills a parameter of the given shape from rng.
type InitFunc func(rng *rand.Rand, shape []int) *tensor.Tensor

// NewParamCustom returns a parameter initialized by fn. specTag must
// uniquely describe fn's behaviour (it substitutes for the function in the
// identity fingerprint): two params with equal (specTag, seed, shape)
// must initialize identically.
func NewParamCustom(name, specTag string, seed int64, fn InitFunc, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), seed: seed, kind: initCustom, tag: specTag, fn: fn}
}

type initKind uint8

const (
	initZero initKind = iota
	initOne
	initNormal
	initGlorot
	initHe
	initCustom
)

// NewParam returns a zero-initialized parameter.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), kind: initZero}
}

// NewParamOnes returns a one-initialized parameter (layer-norm gains).
func NewParamOnes(name string, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), kind: initOne}
}

// NewParamNormal returns a parameter initialized from N(0, std²) with the
// given seed.
func NewParamNormal(name string, seed int64, std float64, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), seed: seed, kind: initNormal, std: std}
}

// NewParamGlorot returns a Glorot-uniform initialized parameter where fan-in
// and fan-out are taken from the first and last shape dimensions.
func NewParamGlorot(name string, seed int64, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), seed: seed, kind: initGlorot}
}

// NewParamHe returns a He-normal initialized parameter with fan-in taken
// from the first shape dimension product.
func NewParamHe(name string, seed int64, fanIn int, shape ...int) *Param {
	return &Param{Name: name, Shape: append([]int(nil), shape...), seed: seed, kind: initHe, std: float64(fanIn)}
}

// NumElems returns the number of scalar values in the parameter.
func (p *Param) NumElems() int { return tensor.NumElems(p.Shape) }

// Bytes returns the parameter's size in bytes (float32 storage).
func (p *Param) Bytes() int64 { return int64(p.NumElems()) * 4 }

// Materialized reports whether the backing tensor has been allocated.
func (p *Param) Materialized() bool { return p.data.Load() != nil }

// Tensor returns the backing tensor, allocating and initializing it
// deterministically on first use.
func (p *Param) Tensor() *tensor.Tensor {
	if d := p.data.Load(); d != nil {
		return d
	}
	p.initMu.Lock()
	defer p.initMu.Unlock()
	if d := p.data.Load(); d != nil {
		return d
	}
	d := p.initialize()
	p.data.Store(d)
	return d
}

// initialize runs the deterministic initializer. Only the kinds that draw
// seed a random source: zero and one fills never do, and trainable
// parameters are re-initialized every cycle.
func (p *Param) initialize() *tensor.Tensor {
	switch p.kind {
	case initZero:
		return tensor.New(p.Shape...)
	case initOne:
		d := tensor.New(p.Shape...)
		d.Fill(1)
		return d
	case initNormal:
		return tensor.RandNormal(p.rng(), p.std, p.Shape...)
	case initGlorot:
		fanIn, fanOut := p.Shape[0], p.Shape[len(p.Shape)-1]
		return tensor.GlorotUniform(p.rng(), fanIn, fanOut, p.Shape...)
	case initHe:
		return tensor.HeNormal(p.rng(), int(p.std), p.Shape...)
	case initCustom:
		d := p.fn(p.rng(), p.Shape)
		if !tensor.ShapeEq(d.Shape(), p.Shape) {
			panic(fmt.Sprintf("graph: custom init for %q produced shape %v, want %v", p.Name, d.Shape(), p.Shape))
		}
		return d
	default:
		panic(fmt.Sprintf("graph: unknown init kind %d", p.kind))
	}
}

// rng returns a random source seeded with the parameter's seed.
func (p *Param) rng() *rand.Rand { return rand.New(rand.NewSource(p.seed)) }

// SetData replaces the backing tensor (checkpoint restore). The shape must
// match the declared parameter shape.
func (p *Param) SetData(t *tensor.Tensor) {
	if !tensor.ShapeEq(t.Shape(), p.Shape) {
		panic(fmt.Sprintf("graph: SetData shape %v does not match param %q shape %v", t.Shape(), p.Name, p.Shape))
	}
	p.data.Store(t)
	p.restored = true
}

// Fingerprint returns a 64-bit identity hash. It hashes the init spec
// (kind, seed, std, shape), which determines the tensor contents, so the
// fingerprint is stable whether or not the lazy tensor has been
// materialized — two frozen layers with equal specs stay identical across
// forward passes (Definition 4.3 relies on this). Only a checkpoint
// restore (SetData) switches identity to the actual values; in-place
// optimizer updates do not, which is sound because trainable layers are
// never merged.
func (p *Param) Fingerprint() uint64 {
	if p.restored {
		return p.data.Load().Fingerprint()
	}
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(p.kind)
	h.Write(buf[:1])
	h.Write([]byte(p.tag))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], uint64(p.seed))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(p.std*1e6)))
	h.Write(buf[:])
	for _, d := range p.Shape {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Reset discards the current values so the next Tensor() call re-runs the
// deterministic initializer. Model selection re-initializes every candidate
// at the start of each cycle this way. Restored (checkpoint-loaded) params
// keep their data.
func (p *Param) Reset() {
	if !p.restored {
		p.data.Store(nil)
	}
}
