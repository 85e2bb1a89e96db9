package tensor

import (
	"math/rand"
	"testing"
)

func TestArenaReusesSizeClasses(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	t1 := s.Get(4, 16) // 64 floats, exactly the min class
	buf := t1.data[:cap(t1.data)]
	s.Recycle()
	t2 := s.Get(8, 8)
	if &buf[0] != &t2.data[0] {
		t.Fatalf("expected recycled buffer for same size class")
	}
	s.Release()
	st := a.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 || st.Puts != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestArenaGetZeroesRecycledBuffers(t *testing.T) {
	s := NewArena().Scope()
	defer s.Release()
	t1 := s.Get(10)
	// Dirty the slack beyond len too: the next Get may use a longer prefix.
	full := t1.data[:cap(t1.data)]
	for i := range full {
		full[i] = 9
	}
	s.Recycle()
	t2 := s.Get(40)
	if &t2.data[0] != &full[0] {
		t.Fatalf("expected the dirtied buffer back")
	}
	for i, v := range t2.data {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestArenaClassBounds(t *testing.T) {
	if c := arenaClass(0); c != -1 {
		t.Fatalf("class(0) = %d", c)
	}
	if c := arenaClass(1); c != arenaMinBits {
		t.Fatalf("class(1) = %d, want min %d", c, arenaMinBits)
	}
	if c := arenaClass(1 << arenaMaxBits); c != arenaMaxBits {
		t.Fatalf("class(max) = %d", c)
	}
	if c := arenaClass(1<<arenaMaxBits + 1); c != -1 {
		t.Fatalf("oversize should bypass pool, got class %d", c)
	}
	// Oversized Gets still work, they just are not pooled.
	a := NewArena()
	s := a.Scope()
	big := s.Get(1<<arenaMaxBits + 1)
	if big.Len() != 1<<arenaMaxBits+1 {
		t.Fatalf("oversize get wrong len")
	}
	s.Release()
	if st := a.Stats(); st.Misses != 1 || st.Puts != 0 {
		t.Fatalf("oversize buffer must not be pooled: %+v", st)
	}
}

func TestScopeReleaseRecycles(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	for i := 0; i < 5; i++ {
		s.Get(32, 32)
	}
	if s.Live() != 5 {
		t.Fatalf("live = %d, want 5", s.Live())
	}
	s.Release()
	if s.Live() != 0 {
		t.Fatalf("live after release = %d", s.Live())
	}
	// The pool hands the same scope back, and the arena holds the buffers it
	// returned: all hits.
	if s2 := a.Scope(); s2 != s {
		t.Fatalf("pool did not return the released scope")
	}
	before := a.Stats()
	for i := 0; i < 5; i++ {
		s.Get(32, 32)
	}
	s.Release()
	after := a.Stats()
	if hits := after.Hits - before.Hits; hits != 5 {
		t.Fatalf("expected 5 hits after warmup, got %d", hits)
	}
}

// TestScopeDoubleReleaseIsNoOp: a second Release neither recycles anything
// again nor puts the scope in the pool twice — two later Scope calls must
// hand out two different scopes.
func TestScopeDoubleReleaseIsNoOp(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	s.Get(16)
	s.Release()
	s.Release()
	if st := a.Stats(); st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("double release counted twice: %+v", st)
	}
	s1, s2 := a.Scope(), a.Scope()
	if s1 == s2 {
		t.Fatalf("one scope handed out twice: the pool held it twice")
	}
	s1.Release()
	s2.Release()
}

func TestNilArenaAndScopeFallBackToHeap(t *testing.T) {
	var a *Arena
	s := a.Scope()
	if s != nil {
		t.Fatalf("nil arena must yield nil scope")
	}
	got := s.Get(3, 3)
	if got == nil || got.Len() != 9 || got.scope != nil {
		t.Fatalf("nil scope Get must heap-allocate: %+v", got)
	}
	s.Recycle() // must not panic
	s.Release()
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil arena stats must be zero")
	}
}

func TestNewFromPropagatesScope(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	feed := s.Get(4, 8)
	derived := NewFrom(feed, 4, 4)
	if derived.scope != s {
		t.Fatalf("derived tensor must inherit the scope")
	}
	// Kernels propagate too.
	sum := Add(feed, feed)
	if sum.scope != s {
		t.Fatalf("kernel output must inherit the scope")
	}
	// NewFrom2 prefers the first scoped operand.
	plain := New(4, 8)
	if out := NewFrom2(plain, feed, 2, 2); out.scope != s {
		t.Fatalf("NewFrom2 must find the scoped operand")
	}
	if live := s.Live(); live != 4 {
		t.Fatalf("scope live = %d, want 4", live)
	}
	s.Release()
}

// TestReshapeAliasDoesNotDoubleFree: a Reshape alias shares its source's
// buffer without recording it, so a recycle returns the buffer once and two
// later Gets of its class get two different buffers.
func TestReshapeAliasDoesNotDoubleFree(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	orig := s.Get(4, 16)
	view := orig.Reshape(16, 4)
	if view.scope != s {
		t.Fatalf("reshape must keep the scope")
	}
	if s.Live() != 1 {
		t.Fatalf("reshape must not be recorded separately: live=%d", s.Live())
	}
	s.Recycle()
	x, y := s.Get(64), s.Get(64)
	if &x.data[0] == &y.data[0] {
		t.Fatalf("one buffer handed out twice after recycling a reshaped tensor")
	}
	s.Release()
	if st := a.Stats(); st.Puts != 3 || st.Hits != 1 {
		t.Fatalf("want 3 puts (orig, x, y) and 1 hit, got %+v", st)
	}
}

// TestWithAllocReheadersForeignScope: a feed from another scope (or the
// heap) is re-headered into the target scope — same buffer, derived tensors
// land in the target — while a tensor already in it comes back unchanged.
func TestWithAllocReheadersForeignScope(t *testing.T) {
	a := NewArena()
	feedScope, step := a.Scope(), a.Scope()
	feed := feedScope.Get(3, 4)
	feed.Fill(5)
	for _, src := range []*Tensor{feed, New(3, 4)} {
		in := WithAlloc(step, src)
		if in == src || in.scope != step || &in.data[0] != &src.data[0] || !ShapeEq(in.Shape(), src.Shape()) {
			t.Fatalf("WithAlloc did not re-header %v into the step scope", src.Shape())
		}
		if out := Add(in, in); out.scope != step {
			t.Fatalf("tensor derived from the re-headered feed left the step scope")
		}
	}
	if step.Live() != 2 || feedScope.Live() != 1 {
		t.Fatalf("re-headering must record nothing: step live %d, feed live %d", step.Live(), feedScope.Live())
	}
	if own := step.Get(2); WithAlloc(step, own) != own {
		t.Fatalf("a tensor already in the scope must come back unchanged")
	}
	step.Release()
	if feed.data[0] != 5 {
		t.Fatalf("recycling the step scope touched the feed's buffer")
	}
	feedScope.Release()
}

// TestScopeHandoffOverChannel is the single-owner contract the feed
// prefetcher relies on: a producer fills a scope and sends it; from then on
// only the consumer touches it, computes in it and releases it. -race holds
// that nothing is shared.
func TestScopeHandoffOverChannel(t *testing.T) {
	a := NewArena()
	type batch struct {
		x     *Tensor
		scope *Scope
	}
	ch := make(chan batch, 1)
	go func() {
		defer close(ch)
		for i := 0; i < 50; i++ {
			s := a.Scope()
			x := s.Get(16, 16)
			x.Fill(float32(i))
			ch <- batch{x: x, scope: s}
		}
	}()
	i := 0
	for b := range ch {
		y := Add(b.x, b.x)
		if y.scope != b.scope || y.data[0] != float32(2*i) {
			t.Fatalf("batch %d: consumer computed %v in %p, want %d in %p", i, y.data[0], y.scope, 2*i, b.scope)
		}
		b.scope.Release()
		i++
	}
	st := a.Stats()
	if st.Gets != 100 || st.Puts != 100 {
		t.Fatalf("handoff lost traffic: %+v", st)
	}
	if st.Misses > 6 {
		t.Fatalf("at most three batches are in flight at once, yet %d misses", st.Misses)
	}
}

// TestScopeGetAllocs pins the heap objects per tensor: none for a warm
// scope's Get or for NewFrom over a scoped source (the variadic shape stays
// on the stack, the header comes from the slab), and at most header plus
// buffer for New. Each run recycles, as a training step does.
func TestScopeGetAllocs(t *testing.T) {
	s := NewArena().Scope()
	defer s.Release()
	a, b, c := 3, 5, 7
	get := func() { s.Get(a, b, c); s.Recycle() }
	newFrom := func() { NewFrom(s.Get(a, b), a, b); s.Recycle() }
	get()
	newFrom()
	if n := testing.AllocsPerRun(100, get); n != 0 {
		t.Errorf("warm Scope.Get: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, newFrom); n != 0 {
		t.Errorf("Scope.Get + NewFrom(scoped): %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { New(a, b, c) }); n > 2 {
		t.Errorf("New: %v allocs, want at most 2", n)
	}
}

func TestCloneInheritsAllocator(t *testing.T) {
	a := NewArena()
	s := a.Scope()
	feed := s.Get(3, 3)
	feed.Fill(2)
	c := feed.Clone()
	if c.scope != s {
		t.Fatalf("Clone must inherit the scope")
	}
	if c.data[0] != 2 {
		t.Fatalf("Clone must copy data")
	}
	// CloneIn with explicit target scope.
	h := CloneIn(nil, feed)
	if h.scope != s {
		t.Fatalf("CloneIn(nil) inherits source scope")
	}
	s2 := a.Scope()
	c2 := CloneIn(s2, feed)
	if c2.scope != s2 {
		t.Fatalf("CloneIn must use the given scope")
	}
	s.Release()
	s2.Release()
}

func TestSetMaxWorkers(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(3)
	if n := MaxWorkers(); n != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", n)
	}
	SetMaxWorkers(0)
	if n := MaxWorkers(); n < 1 {
		t.Fatalf("default MaxWorkers = %d", n)
	}
}

// TestParallelMatchesSerial checks bit-identical results for the
// parallelized kernels under a forced multi-worker split versus one worker.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandNormal(rng, 1, 2, 12, 12, 3)
	g := ConvGeom{InH: 12, InW: 12, InC: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	pool := ConvGeom{InH: 12, InW: 12, InC: 3, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	a := RandNormal(rng, 1, 300, 40)
	b := RandNormal(rng, 1, 300, 40)

	type result struct {
		im2col, col2im, mp, mpBack, gap, gapBack, add, soft *Tensor
	}
	run := func() result {
		cols := Im2Col(x, g)
		mp, arg := MaxPool2D(x, pool)
		mpb := MaxPool2DBackward(mp, arg, x.Shape())
		gap := GlobalAvgPool(x)
		return result{
			im2col:  cols,
			col2im:  Col2Im(cols, 2, g),
			mp:      mp,
			mpBack:  mpb,
			gap:     gap,
			gapBack: GlobalAvgPoolBackward(gap, x.Shape()),
			add:     Add(a, b),
			soft:    SoftmaxRows(a),
		}
	}
	SetMaxWorkers(1)
	serial := run()
	SetMaxWorkers(4)
	defer SetMaxWorkers(0)
	par := run()

	check := func(name string, s, p *Tensor) {
		t.Helper()
		if !s.SameShape(p) {
			t.Fatalf("%s: shape mismatch", name)
		}
		for i := range s.data {
			if s.data[i] != p.data[i] {
				t.Fatalf("%s: parallel result differs at %d: %v vs %v", name, i, s.data[i], p.data[i])
			}
		}
	}
	check("Im2Col", serial.im2col, par.im2col)
	check("Col2Im", serial.col2im, par.col2im)
	check("MaxPool2D", serial.mp, par.mp)
	check("MaxPool2DBackward", serial.mpBack, par.mpBack)
	check("GlobalAvgPool", serial.gap, par.gap)
	check("GlobalAvgPoolBackward", serial.gapBack, par.gapBack)
	check("Add", serial.add, par.add)
	check("SoftmaxRows", serial.soft, par.soft)
}

func TestWorkersFromEnv(t *testing.T) {
	cases := map[string]int{"": 0, "x": 0, "-2": 0, "0": 0, "1": 1, "8": 8}
	for in, want := range cases {
		if got := workersFromEnv(in); got != want {
			t.Errorf("workersFromEnv(%q) = %d, want %d", in, got, want)
		}
	}
}
