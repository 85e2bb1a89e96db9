package tensor

import (
	"math/rand"
	"testing"
)

func TestScheduleString(t *testing.T) {
	cases := []struct {
		sch  Schedule
		want string
	}{
		{Schedule{}, "default w*"},
		{Schedule{Workers: 1}, "default w1"},
		{Schedule{TileM: 4, TileK: 256, Workers: 1}, "m4k256 w1"},
		{Schedule{TileK: 128}, "k128 w*"},
		{Schedule{Workers: 8, SerialBelow: 1}, "default w8 cut1"},
	}
	for _, c := range cases {
		if got := c.sch.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.sch, got, c.want)
		}
	}
}

func TestWouldParallelize(t *testing.T) {
	SetMaxWorkers(4)
	t.Cleanup(func() { SetMaxWorkers(0) })
	cases := []struct {
		name string
		sch  Schedule
		n    int
		work int
		want bool
	}{
		{"big work, ambient workers", Schedule{}, 100, parallelThreshold, true},
		{"below global threshold", Schedule{}, 100, parallelThreshold - 1, false},
		{"tuned cutoff admits small work", Schedule{SerialBelow: 1}, 100, 10, true},
		{"tuned cutoff rejects", Schedule{SerialBelow: 1 << 30}, 100, 1 << 20, false},
		{"serial workers", Schedule{Workers: 1}, 100, 1 << 30, false},
		{"single chunk", Schedule{SerialBelow: 1}, 1, 1 << 30, false},
		{"workers above cap clamp to cap", Schedule{Workers: 64, SerialBelow: 1}, 100, 10, true},
	}
	for _, c := range cases {
		if got := fanOut(c.sch, c.n, c.work) > 1; got != c.want {
			t.Errorf("%s: fans out = %v, want %v", c.name, got, c.want)
		}
	}
}

// askLog is a ScheduleSource that answers every lookup with one schedule
// and keeps what it was asked.
type askLog struct {
	sch  Schedule
	asks []ask
}

type ask struct {
	op      Op
	dims    [3]int
	workers int
}

func (l *askLog) Schedule(op Op, dims [3]int, workers int) (Schedule, bool) {
	l.asks = append(l.asks, ask{op, dims, workers})
	return l.sch, true
}

// TestScheduleSourceIsAskedAndObeyed runs one kernel per Op under a source
// that records its lookups and forces one worker: each kernel asks once,
// with its own op, its own dispatch dims and the ambient worker cap; its
// output is the seed body's (reference_test.go) bit for bit; and the
// schedule it was handed keeps a loop the default schedule would fan out on
// the calling goroutine. Uninstalling the source restores the zero Schedule.
func TestScheduleSourceIsAskedAndObeyed(t *testing.T) {
	SetMaxWorkers(4)
	t.Cleanup(func() {
		SetMaxWorkers(0)
		SetScheduleSource(nil)
	})
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 48, 40, 56 // m*k*n clears parallelThreshold
	a, b := fillMixed(rng, New(m, k)), fillMixed(rng, New(k, n))
	bt, at := fillMixed(rng, New(n, k)), fillMixed(rng, New(k, m))
	g := ConvGeom{InH: 12, InW: 12, InC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const batch = 8
	x := fillMixed(rng, New(batch, g.InH, g.InW, g.InC))
	positions, window := g.OutH()*g.OutW(), g.KH*g.KW*g.InC
	cols := refIm2Col(x, g)
	pooled, arg := refMaxPool2D(x, g)
	big := fillMixed(rng, New(512, 256))

	forced := Schedule{Workers: 1}
	cases := []struct {
		op   Op
		dims [3]int
		run  func() *Tensor
		want *Tensor
	}{
		{OpMatMul, [3]int{m, k, n}, func() *Tensor { return MatMul(a, b) }, refMatMul(a, b)},
		{OpMatMulBT, [3]int{m, k, n}, func() *Tensor { return MatMulBT(a, bt) }, refMatMulBT(a, bt)},
		{OpMatMulAT, [3]int{m, k, n}, func() *Tensor { return MatMulAT(at, b) }, refMatMulAT(at, b)},
		{OpIm2Col, [3]int{batch * positions, window, 0}, func() *Tensor { return Im2Col(x, g) }, cols},
		{OpCol2Im, [3]int{batch, positions, window}, func() *Tensor { return Col2Im(cols, batch, g) }, refCol2Im(cols, batch, g)},
		{OpMaxPool, [3]int{batch * positions, g.InC, g.KH * g.KW}, func() *Tensor { out, _ := MaxPool2D(x, g); return out }, pooled},
		{OpMaxPoolBack, [3]int{batch, len(arg) / batch, 0}, func() *Tensor { return MaxPool2DBackward(pooled, arg, x.Shape()) }, nil},
		{OpGap, [3]int{batch, g.InH * g.InW, g.InC}, func() *Tensor { return GlobalAvgPool(x) }, refGlobalAvgPool(x)},
		{OpGapBack, [3]int{batch, g.InH * g.InW, g.InC}, func() *Tensor { return GlobalAvgPoolBackward(refGlobalAvgPool(x), x.Shape()) }, nil},
		{OpEltwise, [3]int{big.Len(), 0, 0}, func() *Tensor { return Add(big, big) }, nil},
		{OpRowwise, [3]int{512, 256, 0}, func() *Tensor { return SoftmaxRows(big) }, nil},
	}
	for _, c := range cases {
		// Ops without a separate seed body have one loop for every schedule:
		// their reference is the same kernel under the default schedule.
		want := c.want
		if want == nil {
			SetScheduleSource(nil)
			want = c.run()
		}
		src := &askLog{sch: forced}
		SetScheduleSource(src)
		got := c.run()
		if len(src.asks) != 1 || src.asks[0] != (ask{c.op, c.dims, MaxWorkers()}) {
			t.Errorf("%s: source asked %+v, want once with %+v", c.op, src.asks, ask{c.op, c.dims, MaxWorkers()})
		}
		assertBitsEqual(t, string(c.op), got, want)
		if sch := scheduleFor(c.op, c.dims); sch != forced {
			t.Errorf("%s: scheduleFor = %+v, want the source's %+v", c.op, sch, forced)
		}
	}

	const rows, work = 64, 1 << 30
	if fanOut(Schedule{}, rows, work) < 2 {
		t.Fatal("the default schedule must fan this loop out for the next check to mean anything")
	}
	var chunks [][2]int
	parallelFor(forced, rows, work, func(lo, hi int) { chunks = append(chunks, [2]int{lo, hi}) })
	if len(chunks) != 1 || chunks[0] != [2]int{0, rows} {
		t.Errorf("Workers: 1 ran chunks %v, want one [0 %d)", chunks, rows)
	}

	if CurrentScheduleSource() == nil {
		t.Fatal("CurrentScheduleSource = nil with a source installed")
	}
	SetScheduleSource(nil)
	if src := CurrentScheduleSource(); src != nil {
		t.Fatalf("CurrentScheduleSource = %v after uninstall, want nil", src)
	}
	if sch := scheduleFor(OpMatMul, [3]int{m, k, n}); sch != (Schedule{}) {
		t.Errorf("scheduleFor without a source = %+v, want the zero Schedule", sch)
	}
}

// TestScheduleForDoesNotAllocate pins the per-launch cost of schedule
// resolution: it stays off the heap, with or without a tuned source.
func TestScheduleForDoesNotAllocate(t *testing.T) {
	t.Cleanup(func() { SetScheduleSource(nil) })
	dims := [3]int{8, 8, 8}
	for _, src := range []ScheduleSource{nil, testForce{Schedule{TileM: 2, Workers: 1}}} {
		SetScheduleSource(src)
		if allocs := testing.AllocsPerRun(100, func() { scheduleFor(OpMatMul, dims) }); allocs != 0 {
			t.Errorf("source %v: scheduleFor allocates %v times per launch, want 0", src, allocs)
		}
	}
}
