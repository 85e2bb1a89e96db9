package tensor

import "testing"

func TestScheduleString(t *testing.T) {
	cases := []struct {
		sch  Schedule
		want string
	}{
		{Schedule{}, "default w*"},
		{Schedule{Kernel: "naive", Workers: 1}, "naive w1"},
		{Schedule{Kernel: "blocked", TileM: 4, TileK: 256, Workers: 1}, "blocked m4k256 w1"},
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
		if got := wouldParallelize(c.sch, c.n, c.work); got != c.want {
			t.Errorf("%s: wouldParallelize = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestScheduleSourceDispatchCounts(t *testing.T) {
	t.Cleanup(func() { SetScheduleSource(nil) })
	a, b := New(4, 4), New(4, 4)

	SetScheduleSource(nil)
	_, fb0 := DispatchCounts()
	MatMul(a, b)
	if _, fb := DispatchCounts(); fb != fb0+1 {
		t.Fatalf("fallback dispatches = %d, want %d", fb, fb0+1)
	}

	forced := Schedule{Kernel: "naive", Workers: 1}
	SetScheduleSource(testForce{forced})
	tuned0, _ := DispatchCounts()
	MatMul(a, b)
	tuned1, _ := DispatchCounts()
	if tuned1 != tuned0+1 {
		t.Fatalf("tuned dispatches = %d, want %d", tuned1, tuned0+1)
	}

	var last Schedule
	for _, d := range DispatchSnapshot() {
		if d.Op == OpMatMul {
			last = d.Last
		}
	}
	if last != forced {
		t.Fatalf("last dispatched schedule = %+v, want %+v", last, forced)
	}

	if src := CurrentScheduleSource(); src == nil {
		t.Fatal("CurrentScheduleSource = nil with a source installed")
	}
	SetScheduleSource(nil)
	if src := CurrentScheduleSource(); src != nil {
		t.Fatalf("CurrentScheduleSource = %v after uninstall, want nil", src)
	}
}

// TestScheduleForDoesNotAllocate pins the per-launch cost of the dispatch
// counters: a repeated launch of one op under one schedule stays off the
// heap, with or without a tuned source.
func TestScheduleForDoesNotAllocate(t *testing.T) {
	t.Cleanup(func() { SetScheduleSource(nil) })
	dims := [3]int{8, 8, 8}
	for _, src := range []ScheduleSource{nil, testForce{Schedule{TileM: 2, Workers: 1}}} {
		SetScheduleSource(src)
		scheduleFor(OpMatMul, dims) // first launch records the schedule
		if allocs := testing.AllocsPerRun(100, func() { scheduleFor(OpMatMul, dims) }); allocs != 0 {
			t.Errorf("source %v: scheduleFor allocates %v times per launch, want 0", src, allocs)
		}
	}
}
