package tensor

import (
	"math/bits"
	"sync"
)

// Size-class bounds: buffers are pooled in power-of-two classes from
// 1<<arenaMinBits to 1<<arenaMaxBits float32s. Smaller requests round up to
// the minimum class; larger ones bypass the pool entirely.
const (
	arenaMinBits = 6  // 64 floats, 256 B
	arenaMaxBits = 28 // 256 Mi floats, 1 GiB
	slabHeaders  = 128
)

// Arena pools the buffers and idle scopes of released step scopes. A Scope
// recycles its own buffers between steps without a lock; the arena's mutex
// guards only Scope(), Release(), and a step needing more buffers of a
// class than its scope recycled (in steady state, never). A released scope
// returns every buffer, so buffers flow to whichever scope needs them next.
type Arena struct {
	mu    sync.Mutex
	idle  []*Scope // released scopes, their header slabs kept
	free  [arenaMaxBits + 1][][]float32
	stats ArenaStats
}

// ArenaStats is a point-in-time snapshot of an arena's traffic.
type ArenaStats struct {
	// Gets counts all allocations served; Hits of those were recycled
	// buffers, Misses were fresh makes (including over-max bypasses).
	Gets, Hits, Misses int64
	// Puts counts buffers returned for reuse.
	Puts int64
}

func (st *ArenaStats) add(o ArenaStats) {
	st.Gets += o.Gets
	st.Hits += o.Hits
	st.Misses += o.Misses
	st.Puts += o.Puts
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// arenaClass returns the size-class exponent for n floats, or -1 when n is
// outside the pooled range.
func arenaClass(n int) int {
	if c := max(bits.Len(uint(n-1)), arenaMinBits); n > 0 && c <= arenaMaxBits {
		return c
	}
	return -1
}

// Stats returns the traffic of every scope released so far: a scope's
// counters join the arena's when it goes back to the pool.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// Scope opens a step scope: an idle one from the pool, or a new one. A nil
// arena yields a nil scope, whose methods fall back to heap allocation —
// callers thread one variable through unconditionally.
func (a *Arena) Scope() *Scope {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	if n := len(a.idle); n > 0 {
		s := a.idle[n-1]
		a.idle = a.idle[:n-1]
		s.idle = false
		a.mu.Unlock()
		return s
	}
	a.mu.Unlock()
	return &Scope{arena: a}
}

// Scope is a step-scoped allocator: Recycle takes back every tensor Get
// since the last one (a training step, a materialization chunk) into the
// scope's own free lists and header slab. Tensors derived from a scoped
// tensor (NewFrom, the kernels) allocate from the same scope, so rooting it
// at a step's feeds captures every intermediate, cache, and gradient. A
// Scope has one owner and no lock; ownership moves by handing it over, as
// the prefetcher sends a filled scope to the compute loop. Recycle and
// Release must follow the last use of the scope's tensors.
type Scope struct {
	arena *Arena
	free  [arenaMaxBits + 1][][]float32 // recycled by this scope's steps
	taken [][]float32                   // pooled buffers handed out since the last Recycle
	slab  [][]Tensor                    // header chunks of slabHeaders each
	used  int                           // headers handed out since the last Recycle
	stats ArenaStats                    // traffic not yet added to the arena's
	idle  bool                          // in the arena's pool; guarded by arena.mu
}

// Get returns a zero-filled tensor of the given shape from the scope. On a
// nil scope it falls back to New.
func (s *Scope) Get(shape ...int) *Tensor {
	if s == nil {
		return New(shape...)
	}
	n := checkedElems(shape)
	s.stats.Gets++
	var data []float32
	c := arenaClass(n)
	if c < 0 {
		s.stats.Misses++
		data = make([]float32, n)
	} else if buf := s.pop(c); buf != nil {
		s.stats.Hits++
		s.taken = append(s.taken, buf)
		data = buf[:n]
		clear(data)
	} else {
		s.stats.Misses++
		s.taken = append(s.taken, make([]float32, 1<<c))
		data = s.taken[len(s.taken)-1][:n]
	}
	t := s.header()
	t.setShape(shape)
	t.data, t.scope = data, s
	if c >= 0 {
		t.taken = len(s.taken)
	}
	return t
}

// pop takes a free buffer of class c: one the scope recycled, else one a
// released scope left in the arena (under its lock), else nil.
func (s *Scope) pop(c int) []float32 {
	l := &s.free[c]
	if len(*l) == 0 {
		s.arena.mu.Lock()
		defer s.arena.mu.Unlock()
		l = &s.arena.free[c]
	}
	n := len(*l)
	if n == 0 {
		return nil
	}
	buf := (*l)[n-1]
	*l = (*l)[:n-1]
	return buf
}

// header returns a blank tensor header: the next slot of the scope's slab,
// or a fresh heap header on a nil scope.
func (s *Scope) header() *Tensor {
	if s == nil {
		return new(Tensor)
	}
	if s.used == len(s.slab)*slabHeaders {
		s.slab = append(s.slab, make([]Tensor, slabHeaders))
	}
	t := &s.slab[s.used/slabHeaders][s.used%slabHeaders]
	s.used++
	return t
}

// Free returns t's buffer to the scope's free lists before the step ends,
// so a later Get of the same step can reuse it. Every header over the
// buffer (t, its reshapes, the layer outputs that alias it) becomes
// invalid. Free is a no-op for a buffer the scope does not own: a heap
// tensor, a parameter, a feed re-headered into the scope by WithAlloc, an
// unpooled oversize buffer, or one already freed. Like Get, it is for the
// scope's one owner.
func (s *Scope) Free(t *Tensor) {
	if !s.Owns(t) {
		return
	}
	buf := s.taken[t.taken-1]
	s.taken[t.taken-1] = nil
	c := bits.Len(uint(cap(buf) - 1))
	s.free[c] = append(s.free[c], buf)
	s.stats.Puts++
}

// Owns reports whether t is a header over a pooled buffer the scope handed
// out since its last Recycle and has not had back: a buffer Free would
// take. A nil scope owns nothing.
func (s *Scope) Owns(t *Tensor) bool {
	if s == nil || t == nil || t.scope != s || t.taken == 0 || t.taken > len(s.taken) {
		return false
	}
	buf := s.taken[t.taken-1]
	return buf != nil && &buf[0] == &t.data[0]
}

// Recycle returns every buffer and header handed out since the last
// Recycle to the scope's free lists; the scope itself stays live for the
// next step. All tensors taken from it before the call become invalid.
func (s *Scope) Recycle() {
	if s == nil {
		return
	}
	for _, buf := range s.taken {
		if buf == nil {
			continue // freed early
		}
		c := bits.Len(uint(cap(buf) - 1))
		s.free[c] = append(s.free[c], buf)
		s.stats.Puts++
	}
	s.taken = s.taken[:0]
	// Blank the used headers: a stale pointer then fails loudly instead of
	// reading a buffer that already backs another tensor.
	for i := 0; i < s.used; i += slabHeaders {
		clear(s.slab[i/slabHeaders][:min(slabHeaders, s.used-i)])
	}
	s.used = 0
}

// Release recycles the scope, hands all its buffers to the arena for any
// scope's next steps, and returns the scope to the pool. A second Release
// of a scope already in the pool is a no-op.
func (s *Scope) Release() {
	if s == nil {
		return
	}
	a := s.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if s.idle {
		return
	}
	s.Recycle()
	for c, l := range s.free {
		a.free[c] = append(a.free[c], l...)
		s.free[c] = l[:0]
	}
	s.idle = true
	a.idle = append(a.idle, s)
	a.stats.add(s.stats)
	s.stats = ArenaStats{}
}

// Live returns how many pooled buffers the scope has handed out since its
// last Recycle, freed ones included (test hook).
func (s *Scope) Live() int { return len(s.taken) }

// NewFrom returns a zero-filled tensor of the given shape allocated from
// src's scope — the rule that threads a step scope through the kernels. A
// nil or unscoped src falls back to New.
func NewFrom(src *Tensor, shape ...int) *Tensor {
	if src == nil {
		return New(shape...)
	}
	return src.scope.Get(shape...)
}

// NewFrom2 is NewFrom over two candidate sources, preferring the first
// scoped one. Binary kernels use it so the output lands in the step scope
// even when one operand is an unscoped view or parameter.
func NewFrom2(a, b *Tensor, shape ...int) *Tensor {
	if a != nil && a.scope != nil {
		return a.scope.Get(shape...)
	}
	return NewFrom(b, shape...)
}

// CloneIn returns a deep copy of t allocated from s; a nil s inherits t's
// own scope (matching Clone).
func CloneIn(s *Scope, t *Tensor) *Tensor {
	if s == nil {
		s = t.scope
	}
	c := s.Get(t.shape...)
	copy(c.data, t.data)
	return c
}

// WithAlloc re-headers t into scope s — how an executor roots a step scope
// at the batch feeds. The alias shares t's buffer, which stays owned by its
// creator (nothing is copied or recorded for recycling), but everything
// computed from it lands in s. A nil s or t, or a t already in s, is
// returned unchanged.
func WithAlloc(s *Scope, t *Tensor) *Tensor {
	if t == nil || s == nil || t.scope == s {
		return t
	}
	h := s.header()
	h.setShape(t.shape)
	h.data, h.scope = t.data, s
	return h
}
