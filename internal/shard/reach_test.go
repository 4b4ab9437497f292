package shard

import (
	"testing"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
)

// TestMovingRegionsPruned holds the reach rule to both halves of its
// promise: a region whose nodes move is skipped while none of them can be
// in range, and never once one can; a static joiner keeps its region
// prunable, and a joiner in range is reached.
func TestMovingRegionsPruned(t *testing.T) {
	cfg := radio.DefaultConfig()
	cfg.BroadcastJitter, cfg.BitrateBps = 0, 0 // a broadcast is sent when it is scheduled
	near, far := geom.Point{}, geom.Point{X: 1000}
	build := func() *Engine {
		e := New(Config{Seed: 1, Regions: 2, Radio: cfg, Positions: []geom.Point{near, far}})
		if e.RegionOf(0) == e.RegionOf(1) {
			t.Fatal("the nodes share a region; the test is vacuous")
		}
		return e
	}
	ignore := radio.HandlerFunc(func(radio.NodeID, []byte) {})
	// posted has node 0 broadcast at sent and reports whether the frame
	// was posted to region 1: every event region 1 runs here is a crossing
	// batch landing.
	posted := func(e *Engine, sent sim.Time) bool {
		before := e.regions[1].sim.Processed()
		e.ScheduleOwnedAt(0, sent, func() { e.NodeMedium(0).Broadcast(0, []byte("bc")) })
		e.RunUntil(sent.Add(time.Millisecond))
		return e.regions[1].sim.Processed() > before
	}
	seconds := func(s float64) sim.Time { return sim.Time(s * float64(time.Second)) }

	t.Run("distant movers", func(t *testing.T) {
		// Both nodes declare 10 m/s and hold still for an hour, so the far
		// box comes within Range + 10·t of the transmitter at t = 75 s.
		e := build()
		e.AddNode(0, mobility.NewGlide(near, far, sim.Time(time.Hour), 10), ignore)
		e.AddNode(1, mobility.NewGlide(far, near, sim.Time(time.Hour), 10), ignore)
		if posted(e, seconds(74.9)) {
			t.Error("posted at 74.9 s, while Range + speed·Sent falls short of the far box")
		}
		if !posted(e, seconds(75)) {
			t.Error("not posted at 75 s, once Range + speed·Sent reaches the far box")
		}
	})

	t.Run("approaching mover", func(t *testing.T) {
		// The glider heads straight for the transmitter at its speed bound
		// and enters range at 75 s, the first instant the rule lets the
		// frame reach its box.
		e := build()
		got := 0
		e.AddNode(0, mobility.Static(near), ignore)
		e.AddNode(1, mobility.NewGlide(far, near, 0, 10), radio.HandlerFunc(func(radio.NodeID, []byte) { got++ }))
		for s := 70; s <= 80; s++ {
			posted(e, seconds(float64(s)))
		}
		if got != 6 {
			t.Errorf("the approaching glider received %d of the 6 broadcasts sent from 75 s on", got)
		}
	})

	t.Run("static joiners", func(t *testing.T) {
		e := build()
		e.AddNode(0, mobility.Static(near), ignore)
		e.AddNode(1, mobility.Static(far), ignore)
		e.RunUntil(seconds(1))
		join := func(id radio.NodeID, at geom.Point, h radio.Handler) {
			e.InjectNode(id, at)
			e.AddNode(id, mobility.Static(at), h)
			if e.RegionOf(id) != 1 {
				t.Fatalf("joiner %d landed in region %d, not 1; the test is vacuous", id, e.RegionOf(id))
			}
		}
		join(2, geom.Point{X: 1100}, ignore)
		if posted(e, seconds(2)) {
			t.Error("a static joiner out of reach made its region unprunable")
		}
		got := 0
		join(3, geom.Point{X: 200}, radio.HandlerFunc(func(radio.NodeID, []byte) { got++ }))
		if !posted(e, seconds(3)) || got != 1 {
			t.Errorf("a joiner in range received %d copies, want 1", got)
		}
	})
}
