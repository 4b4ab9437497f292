package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	s.Run()
	if s.Now() != 0 {
		t.Fatalf("clock moved with no events: %v", s.Now())
	}
	if s.Processed() != 0 {
		t.Fatalf("processed %d events from empty queue", s.Processed())
	}
}

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("final clock = %v", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*time.Millisecond), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	s := New()
	var fired Time
	s.After(10*time.Millisecond, func() {
		s.At(0, func() { fired = s.Now() })
	})
	s.Run()
	if fired != Time(10*time.Millisecond) {
		t.Fatalf("past event fired at %v, want clamp to 10ms", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			s.After(time.Millisecond, schedule)
		}
	}
	s.After(time.Millisecond, schedule)
	s.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if s.Now() != Time(100*time.Millisecond) {
		t.Fatalf("clock = %v, want 100ms", s.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	s := New()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before run")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var got []int
	var timers []*Timer
	for i := 0; i < 5; i++ {
		i := i
		timers = append(timers, s.After(Duration(i+1)*time.Millisecond, func() { got = append(got, i) }))
	}
	timers[2].Cancel()
	s.Run()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New()
	count := 0
	s.After(time.Millisecond, func() { count++ })
	s.After(time.Hour, func() { count++ })
	s.RunUntil(Time(time.Second))
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if s.Now() != Time(time.Second) {
		t.Fatalf("clock = %v, want 1s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestRunForIsRelative(t *testing.T) {
	s := New()
	s.RunFor(time.Second)
	s.RunFor(time.Second)
	if s.Now() != Time(2*time.Second) {
		t.Fatalf("clock = %v, want 2s", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New()
		rng := rand.New(rand.NewSource(42))
		var draws []int64
		for i := 0; i < 50; i++ {
			s.After(Duration(rng.Int63n(int64(time.Second))), func() {
				draws = append(draws, rng.Int63())
			})
		}
		s.Run()
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d", i)
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil callback")
		}
	}()
	New().After(time.Second, nil)
}

func TestTimeArithmetic(t *testing.T) {
	base := Time(time.Second)
	if base.Add(time.Second) != Time(2*time.Second) {
		t.Fatal("Add broken")
	}
	if base.Add(time.Second).Sub(base) != time.Second {
		t.Fatal("Sub broken")
	}
	if base.Seconds() != 1.0 {
		t.Fatalf("Seconds = %v", base.Seconds())
	}
	if base.String() != "1.000s" {
		t.Fatalf("String = %q", base.String())
	}
}

// Property: for any batch of event offsets, events fire in sorted order and
// the clock never moves backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(offsets []uint32) bool {
		s := New()
		var fired []Time
		for _, off := range offsets {
			s.After(Duration(off%1e6)*time.Microsecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(offsets)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// Handle-free events share the Timer-backed events' ordering key: one
// FIFO per (instant, owner), whichever entry point scheduled them.
func TestDoArgOrderingMatchesAt(t *testing.T) {
	s := New()
	var got []int
	push := func(v any) { got = append(got, v.(int)) }
	s.DoArg(2*time.Millisecond, push, 3)
	s.After(time.Millisecond, func() { got = append(got, 1) })
	s.DoAtArg(Time(time.Millisecond), push, 2) // same instant as the After above, scheduled later
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestHandleFreeEventsRecycle(t *testing.T) {
	s := New()
	// Interleave handle-free schedules with firings; the free list must hand
	// the same structs back without perturbing order or the timer path.
	fired := 0
	var loop func()
	loop = func() {
		fired++
		if fired < 100 {
			s.DoArg(time.Microsecond, func(any) { loop() }, nil)
		}
	}
	s.DoArg(0, func(any) { loop() }, nil)
	timer := s.After(time.Second, func() { t.Fatal("cancelled timer fired") })
	s.RunFor(time.Millisecond)
	if fired != 100 {
		t.Fatalf("fired %d events, want 100", fired)
	}
	if len(s.freeEvents) == 0 {
		t.Fatal("no events were recycled")
	}
	if !timer.Cancel() {
		t.Fatal("timer was not pending")
	}
	// A Timer-backed event is never recycled: cancelling after heavy
	// recycling must not have corrupted the free list or the queue.
	s.DoArg(0, func(any) {}, nil)
	s.Run()
}
