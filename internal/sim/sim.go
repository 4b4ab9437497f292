// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel keeps a virtual clock and a priority queue of events keyed
// (time, owner, per-owner sequence). Events one owner schedules for the
// same instant fire in scheduling order, and owners tie-break by id, so the
// order never depends on how different owners' events interleaved while
// being scheduled. The kernel draws no randomness: protocol code owns its
// seeded streams and the radio draws from content hashes, which makes every
// simulation run exactly reproducible. All protocol code in this
// repository is driven by this clock; nothing reads wall time.
package sim

import (
	"fmt"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration re-exports time.Duration for readability at call sites.
type Duration = time.Duration

// String formats the timestamp as seconds with millisecond precision.
func (t Time) String() string {
	return fmt.Sprintf("%.3fs", t.Seconds())
}

// Seconds returns the timestamp as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(time.Second) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and earlier time u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// event is a single scheduled callback: either a Timer-backed closure (fn,
// from At) or a handle-free argument-carrying pair (afn, arg, from
// DoAtArg), which lets hot paths schedule a static function over a
// recycled state object instead of allocating a closure per event.
// Exactly one of fn/afn is set. No Timer ever references an afn event, so
// Step recycles its struct after it fires; Timer-backed events are never
// recycled — a stale Timer holding a recycled event could cancel an
// unrelated later event.
type event struct {
	at    Time
	owner uint32 // scheduling owner (see SetOwner)
	seq   uint64 // tie-breaker: FIFO for equal (at, owner)
	fn    func()
	afn   func(any)
	arg   any
	idx   int // heap index, -1 when popped
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, owner, seq).
// The ordering is a strict total order (seq is unique per owner), so any
// correct heap pops events in exactly the same sequence — switching the
// shape or implementation cannot change simulation results. Compared to
// container/heap it avoids the interface dispatch per comparison and, being
// 4-ary, halves the tree depth; the event queue is the hottest structure
// in large simulations.
//
// seq is drawn from a per-owner counter: ties at one instant resolve by
// owner id first and by each owner's own causal order second — a key that
// does not depend on how events from different owners interleaved while
// being scheduled, which is exactly what makes the sharded engine's merged
// execution order independent of the shard count. A simulator whose events
// all carry owner 0 (one that never calls SetOwner) orders them as a plain
// (at, seq) FIFO.
type eventHeap []*event

func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.owner != b.owner {
		return a.owner < b.owner
	}
	return a.seq < b.seq
}

func (h eventHeap) siftUp(i int) {
	ev := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(ev, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].idx = i
		i = parent
	}
	h[i] = ev
	ev.idx = i
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	ev := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(h[c], h[best]) {
				best = c
			}
		}
		if !eventLess(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].idx = i
		i = best
	}
	h[i] = ev
	ev.idx = i
}

func (h *eventHeap) push(ev *event) {
	ev.idx = len(*h)
	*h = append(*h, ev)
	h.siftUp(ev.idx)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() *event {
	old := *h
	ev := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].idx = 0
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		(*h).siftDown(0)
	}
	ev.idx = -1
	return ev
}

// remove deletes the event at index i (Timer cancellation).
func (h *eventHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	removed := old[i]
	if i != n {
		old[i] = old[n]
		old[i].idx = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		(*h).siftDown(i)
		(*h).siftUp(i)
	}
	removed.idx = -1
}

// Simulator is a single-threaded discrete-event scheduler.
//
// It is intentionally not safe for concurrent use: determinism is the whole
// point, and all model code runs inside event callbacks on one goroutine.
type Simulator struct {
	now       Time
	queue     eventHeap
	processed uint64

	// horizon is the live bound of an in-progress RunBelow, re-read before
	// every event so TightenHorizon can shrink the round from inside one.
	horizon Time

	// owner is stamped on every scheduled event, with a seq from that
	// owner's private counter.
	owner    uint32
	ownerSeq []uint64

	// freeEvents recycles fired handle-free events. Frame schedules are
	// the hottest allocation in large simulations; recycling the event
	// structs (with no closure per event — see DoAtArg) keeps the
	// steady-state event rate allocation-free. Recycling is invisible
	// to simulation results: the heap order is a strict total order over
	// (at, owner, seq) whatever struct identity the events have.
	freeEvents []*event
}

// New returns an empty simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are waiting in the queue.
func (s *Simulator) Pending() int { return len(s.queue) }

// SetOwner sets the owner id stamped on subsequently scheduled events and
// returns the previous owner. The sharded engine stamps node-owned events
// with node id + 1; owner 0 is the default of a simulator that never calls
// SetOwner.
func (s *Simulator) SetOwner(o uint32) uint32 {
	prev := s.owner
	s.owner = o
	return prev
}

// nextKey mints the ordering key for a newly scheduled event.
func (s *Simulator) nextKey() (owner uint32, seq uint64) {
	o := s.owner
	if n := int(o) + 1; n > len(s.ownerSeq) {
		// Owners appear in increasing id order as nodes are built or join;
		// append grows the capacity geometrically, so extending the table
		// one owner at a time is not quadratic.
		s.ownerSeq = append(s.ownerSeq, make([]uint64, n-len(s.ownerSeq))...)
	}
	seq = s.ownerSeq[o]
	s.ownerSeq[o]++
	return o, seq
}

// At schedules fn to run at absolute time t. Scheduling in the past (or at
// the current instant) runs the event at the current time, after all events
// already scheduled for that time.
func (s *Simulator) At(t Time, fn func()) *Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < s.now {
		t = s.now
	}
	ev := &event{at: t, fn: fn}
	ev.owner, ev.seq = s.nextKey()
	s.queue.push(ev)
	return &Timer{sim: s, ev: ev}
}

// After schedules fn to run d after the current time. Negative durations are
// clamped to zero.
func (s *Simulator) After(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// takeEvent returns a recycled handle-free event, or a fresh one.
func (s *Simulator) takeEvent() *event {
	if l := len(s.freeEvents); l > 0 {
		ev := s.freeEvents[l-1]
		s.freeEvents[l-1] = nil
		s.freeEvents = s.freeEvents[:l-1]
		return ev
	}
	return &event{}
}

// DoAtArg schedules fn(arg) at absolute time t without a cancellation
// handle. It is the allocation-light variant of At for hot paths — frame
// deliveries schedule hundreds of thousands of uncancellable events per
// simulated second. Passing a static function plus a pointer argument
// avoids a closure per event, and the event struct itself is recycled
// after firing: the pooled wire path schedules its recycled transmit and
// delivery state this way, making the hot event path allocation-free end
// to end.
func (s *Simulator) DoAtArg(t Time, fn func(any), arg any) {
	if fn == nil {
		panic("sim: DoAtArg called with nil callback")
	}
	if t < s.now {
		t = s.now
	}
	ev := s.takeEvent()
	ev.at, ev.afn, ev.arg = t, fn, arg
	ev.owner, ev.seq = s.nextKey()
	s.queue.push(ev)
}

// DoArg schedules fn(arg) to run d after the current time without a
// cancellation handle; negative durations are clamped to zero.
func (s *Simulator) DoArg(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	s.DoAtArg(s.now.Add(d), fn, arg)
}

// Step fires the earliest pending event. It reports false when the queue is
// empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	ev := s.queue.pop()
	s.now = ev.at
	s.processed++
	// The firing event's owner becomes the scheduling context: events a
	// callback schedules belong to the same causal stream unless it says
	// otherwise (SetOwner). This is what makes ownership an inherited
	// property rather than something every call site threads through by
	// hand.
	s.owner = ev.owner
	if afn, arg := ev.afn, ev.arg; afn != nil {
		// Recycle before firing: the callback may itself schedule events
		// and can then reuse this struct immediately.
		ev.afn, ev.arg = nil, nil
		s.freeEvents = append(s.freeEvents, ev)
		afn(arg)
	} else {
		ev.fn()
	}
	return true
}

// Run processes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline and then sets the
// clock to deadline (if it has not already passed it).
func (s *Simulator) RunUntil(deadline Time) {
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	s.AdvanceTo(deadline)
}

// RunFor advances the simulation by d virtual time.
func (s *Simulator) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// NextAt peeks the timestamp of the earliest pending event. ok is false
// when the queue is empty.
func (s *Simulator) NextAt() (t Time, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// RunBelow processes events with timestamps strictly before horizon and
// leaves the clock at the last processed event — unlike RunUntil it never
// advances the clock past real work. The sharded engine drives each region
// with conservative horizons this way; the strict bound keeps an event at
// exactly the horizon (where a cross-region message could still land)
// untouched until the next round. Events may shrink the remaining horizon
// mid-run via TightenHorizon.
func (s *Simulator) RunBelow(horizon Time) {
	s.horizon = horizon
	for len(s.queue) > 0 && s.queue[0].at < s.horizon {
		s.Step()
	}
	s.horizon = 0
}

// TightenHorizon lowers the bound of an in-progress RunBelow. The sharded
// engine calls it when an event emits a cross-region message: a peer may
// react to a message sent at u and reflect one back as early as u + 2L, a
// feedback path the round-start horizon (computed from peers' then-pending
// events) cannot see. Without the cap a region whose peers look idle would
// free-run to the round limit and receive every reply in its virtual past.
// No-op outside RunBelow or when the bound is already at or below t.
func (s *Simulator) TightenHorizon(t Time) {
	if s.horizon > t {
		s.horizon = t
	}
}

// AdvanceTo moves the clock forward to t without processing anything, a
// no-op if the clock already passed t. The sharded engine uses it to set
// every region clock to a run's deadline once every region has quiesced.
func (s *Simulator) AdvanceTo(t Time) {
	if s.now < t {
		s.now = t
	}
}

// Timer is a handle to a scheduled event that can be cancelled.
type Timer struct {
	sim *Simulator
	ev  *event
}

// Cancel removes the event from the queue if it has not fired yet.
// It reports whether the event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.idx < 0 {
		return false
	}
	if t.ev.fn == nil {
		// Only At sets fn. The comment on event promises Timers never
		// reference handle-free events; a recycled struct under a live
		// Timer could cancel an unrelated later event, so enforce it
		// instead of trusting it.
		panic("sim: Timer bound to a handle-free event")
	}
	t.sim.queue.remove(t.ev.idx)
	t.ev.fn, t.ev.afn, t.ev.arg = nil, nil, nil
	t.ev = nil
	return true
}

// Pending reports whether the event is still queued.
func (t *Timer) Pending() bool { return t != nil && t.ev != nil && t.ev.idx >= 0 }
