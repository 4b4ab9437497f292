package sim

import (
	"testing"
	"time"
)

// Stop inside RunUntil must freeze the clock at the stopping event: a
// watchdog-cancelled run that reported Now() == deadline would claim
// virtual time it never simulated.
func TestStopFreezesClockInRunUntil(t *testing.T) {
	s := New()
	stopAt := Time(10 * time.Millisecond)
	s.At(stopAt, func() { s.Stop() })
	s.At(Time(20*time.Millisecond), func() { t.Fatal("event after Stop fired") })
	s.RunUntil(Time(time.Second))
	if s.Now() != stopAt {
		t.Fatalf("clock advanced to %v after Stop, want frozen at %v", s.Now(), stopAt)
	}
}

func TestStopFreezesClockInRunFor(t *testing.T) {
	s := New()
	s.RunFor(time.Millisecond) // move the base clock off zero first
	base := s.Now()
	stopAt := base.Add(3 * time.Millisecond)
	s.At(stopAt, func() { s.Stop() })
	s.RunFor(time.Second)
	if s.Now() != stopAt {
		t.Fatalf("clock advanced to %v after Stop, want frozen at %v", s.Now(), stopAt)
	}
}

// Without Stop, RunUntil still advances the clock to the deadline even
// when the queue drains early — the historical contract.
func TestRunUntilStillAdvancesWhenNotStopped(t *testing.T) {
	s := New()
	s.At(Time(time.Millisecond), func() {})
	s.RunUntil(Time(time.Second))
	if s.Now() != Time(time.Second) {
		t.Fatalf("clock at %v, want deadline", s.Now())
	}
}

// Cancel must clear fn, afn and arg: a cleared-but-referenced argument
// object would stay pinned until the event struct itself is collected.
func TestTimerCancelClearsAllCallbackFields(t *testing.T) {
	s := New()
	tm := s.After(time.Second, func() {})
	ev := tm.ev
	// Simulate an argument-carrying event under a Timer so the test fails
	// if Cancel ever regresses to clearing fn alone.
	ev.afn, ev.arg = func(any) {}, new(int)
	if !tm.Cancel() {
		t.Fatal("timer was not pending")
	}
	if ev.fn != nil || ev.afn != nil || ev.arg != nil {
		t.Fatalf("cancelled event retains callbacks: fn=%v afn=%v arg=%v",
			ev.fn != nil, ev.afn != nil, ev.arg != nil)
	}
}

// The event.pooled comment promises Timer-backed events are never pooled;
// Cancel now enforces it. A Timer pointing at a pooled event is a kernel
// bug, so the check must be loud.
func TestTimerCancelPanicsOnPooledEvent(t *testing.T) {
	s := New()
	s.DoAt(Time(time.Second), func() {})
	bogus := &Timer{sim: s, ev: s.queue[0]} // pooled event straight off the heap
	defer func() {
		if recover() == nil {
			t.Fatal("Cancel of a pooled-event Timer did not panic")
		}
	}()
	bogus.Cancel()
}

// Same-instant ties resolve by owner id then per-owner seq — independent
// of the order the events were scheduled in.
func TestOwnerModeOrdersByOwnerAtSameInstant(t *testing.T) {
	s := New()
	at := Time(time.Millisecond)
	var got []int
	push := func(v int) func() { return func() { got = append(got, v) } }

	// Schedule deliberately out of owner order, interleaved.
	s.SetOwner(3)
	s.At(at, push(30))
	s.SetOwner(1)
	s.At(at, push(10))
	s.SetOwner(3)
	s.At(at, push(31))
	s.SetOwner(0) // global owner sorts first
	s.At(at, push(0))
	s.SetOwner(1)
	s.DoAt(at, push(11))

	s.Run()
	want := []int{0, 10, 11, 30, 31}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// A simulator that never calls SetOwner stamps every event with owner 0,
// whose counter is a global FIFO: same-instant events fire in scheduling
// order, whether scheduled from outside or from inside events, and with
// or without a cancellation handle.
func TestPlainModeKeepsGlobalFIFO(t *testing.T) {
	s := New()
	at := Time(time.Millisecond)
	var got []int
	push := func(v int) func() { return func() { got = append(got, v) } }
	s.At(0, func() {
		s.At(at, push(2))
		s.DoAt(at, push(3))
	})
	s.At(at, push(0))
	s.DoAt(at, push(1))
	s.Run()
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want ascending FIFO", got)
		}
	}
	if len(s.queue) != 0 {
		t.Fatal("queue not drained")
	}
}

// RunBelow is strict: an event at exactly the horizon stays queued, and
// the clock is left at the last processed event rather than the horizon.
func TestRunBelowStrictHorizon(t *testing.T) {
	s := New()
	fired := make(map[int]bool)
	s.At(Time(1*time.Millisecond), func() { fired[1] = true })
	s.At(Time(2*time.Millisecond), func() { fired[2] = true })
	horizon := Time(2 * time.Millisecond)
	s.RunBelow(horizon)
	if !fired[1] || fired[2] {
		t.Fatalf("fired %v, want only the pre-horizon event", fired)
	}
	if s.Now() != Time(1*time.Millisecond) {
		t.Fatalf("clock at %v, want last processed event", s.Now())
	}
	if next, ok := s.NextAt(); !ok || next != horizon {
		t.Fatalf("NextAt = %v,%v, want %v,true", next, ok, horizon)
	}
	s.AdvanceTo(horizon)
	if s.Now() != horizon {
		t.Fatalf("AdvanceTo left clock at %v", s.Now())
	}
	s.AdvanceTo(Time(time.Microsecond)) // backwards: no-op
	if s.Now() != horizon {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
}

func TestTightenHorizonStopsRunBelowEarly(t *testing.T) {
	s := New()
	fired := make(map[int]bool)
	s.At(Time(1*time.Millisecond), func() {
		fired[1] = true
		// The event that "sends" caps the round at its own feedback bound;
		// the event scheduled below the original horizon but at/after the
		// tightened one must stay queued for the next round.
		s.TightenHorizon(Time(3 * time.Millisecond))
	})
	s.At(Time(2*time.Millisecond), func() { fired[2] = true })
	s.At(Time(5*time.Millisecond), func() { fired[5] = true })
	s.RunBelow(Time(10 * time.Millisecond))
	if !fired[1] || !fired[2] || fired[5] {
		t.Fatalf("fired %v, want 1 and 2 only", fired)
	}
	// Raising is a no-op: the bound only ever shrinks within a round.
	s.At(Time(6*time.Millisecond), func() {
		s.TightenHorizon(Time(20 * time.Millisecond))
	})
	s.RunBelow(Time(7 * time.Millisecond))
	if fired[5] != true {
		t.Fatal("pre-horizon event did not fire in the next round")
	}
	if next, ok := s.NextAt(); ok {
		t.Fatalf("event at %v survived a raise-attempt round below 7ms", next)
	}
}

func TestAdvanceToRespectsStop(t *testing.T) {
	s := New()
	s.Stop()
	s.AdvanceTo(Time(time.Second))
	if s.Now() != 0 {
		t.Fatalf("AdvanceTo moved a stopped clock to %v", s.Now())
	}
}
