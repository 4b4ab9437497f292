package shard_test

import (
	"testing"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/shard"
	"sbr6/internal/sim"
)

// The raw-medium boundary crossings — broadcast into a neighbor region,
// unicast in both directions with the ack resolving on the sender — are the
// primitives every protocol exchange reduces to. Exercising them without
// the protocol stack pins blame precisely when the differential suite
// regresses.
func TestCrossRegionPrimitives(t *testing.T) {
	eng := shard.New(shard.Config{
		Seed:      1,
		Regions:   2,
		Radio:     radio.DefaultConfig(),
		Positions: []geom.Point{{X: 100, Y: 100}, {X: 200, Y: 100}},
	})
	var got []string
	mk := func(name string) radio.Handler {
		return radio.HandlerFunc(func(from radio.NodeID, payload []byte) {
			got = append(got, name+string(payload))
		})
	}
	eng.AddNode(0, mobility.Static(geom.Point{X: 100, Y: 100}), mk("n0:"))
	eng.AddNode(1, mobility.Static(geom.Point{X: 200, Y: 100}), mk("n1:"))
	if eng.RegionOf(0) == eng.RegionOf(1) {
		t.Fatal("nodes share a region; test is vacuous")
	}
	eng.ScheduleOwnedAt(0, sim.Time(time.Millisecond), func() {
		eng.NodeMedium(0).Broadcast(0, []byte("bc"))
	})
	acked := -1
	eng.ScheduleOwnedAt(0, sim.Time(10*time.Millisecond), func() {
		eng.NodeMedium(0).Unicast(0, 1, []byte("uc"), func(ok bool) {
			if ok {
				acked = 1
			} else {
				acked = 0
			}
		})
	})
	eng.ScheduleOwnedAt(1, sim.Time(20*time.Millisecond), func() {
		eng.NodeMedium(1).Unicast(1, 0, []byte("re"), nil)
	})
	eng.RunFor(time.Second)

	want := []string{"n1:bc", "n1:uc", "n0:re"}
	if len(got) != len(want) {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deliveries = %v, want %v", got, want)
		}
	}
	if acked != 1 {
		t.Fatalf("cross-region unicast ack = %d, want 1", acked)
	}
	st := eng.Stats()
	if st.BroadcastSent != 1 || st.UnicastSent != 2 || st.RxFrames != 3 {
		t.Fatalf("stats = %+v, want 1 broadcast / 2 unicasts / 3 receptions", st)
	}
	if eng.Now() != sim.Time(time.Second) {
		t.Fatalf("engine clock = %v after drain, want 1s", eng.Now())
	}
}

// A barrier can fall while a cross-region broadcast is in flight. The
// receiving region samples its receivers at the frame's serialization end,
// before the barrier, so the engine must not forget that instant of their
// tracks: it keeps one lookahead of history behind every deadline.
func TestBarrierDuringCrossRegionFlight(t *testing.T) {
	cfg := radio.DefaultConfig()
	cfg.BroadcastJitter, cfg.BitrateBps = 0, 0
	at := []geom.Point{{X: 100, Y: 100}, {X: 200, Y: 100}}
	eng := shard.New(shard.Config{Seed: 1, Regions: 2, Radio: cfg, Positions: at})
	walk := mobility.NewWalk(mobility.WalkConfig{Region: geom.Rect{W: 300, H: 200}, Speed: 1, Epoch: time.Second},
		at[1], draw.New(1, draw.Track, 0))
	got := 0
	eng.AddNode(0, mobility.Static(at[0]), radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	eng.AddNode(1, walk, radio.HandlerFunc(func(radio.NodeID, []byte) { got++ }))
	if eng.RegionOf(0) == eng.RegionOf(1) {
		t.Fatal("nodes share a region; test is vacuous")
	}
	sent := sim.Time(time.Second)
	eng.ScheduleOwnedAt(0, sent, func() { eng.NodeMedium(0).Broadcast(0, []byte("bc")) })
	eng.RunUntil(sent.Add(cfg.PropDelay / 2)) // the frame is still in flight
	if got != 0 {
		t.Fatal("frame landed before its propagation delay")
	}
	eng.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("walker received %d copies, want 1", got)
	}
}

// A crossing broadcast counts its receivers exactly as a local one does:
// a down receiver is skipped before the loss draw and the link counters,
// so Stats is the same at every region count, lossless and lossy.
func TestCrossingDeliveryCountsLikeLocal(t *testing.T) {
	// At two regions the transmitter (node 0) and a filler out of
	// everyone's range (node 3) make the first strip; the up receiver
	// (node 1) and the down one (node 2) make the second.
	at := []geom.Point{{X: 0}, {X: 100}, {X: 150}, {X: 1, Y: 5000}}
	for _, loss := range []float64{0, 0.5} {
		var stats [2]radio.Stats
		for i, regions := range []int{1, 2} {
			cfg := radio.DefaultConfig()
			cfg.LossRate = loss
			eng := shard.New(shard.Config{Seed: 1, Regions: regions, Radio: cfg, Positions: at})
			got := make([]int, len(at))
			for id, p := range at {
				eng.AddNode(radio.NodeID(id), mobility.Static(p),
					radio.HandlerFunc(func(radio.NodeID, []byte) { got[id]++ }))
			}
			if regions == 2 && (eng.RegionOf(1) == eng.RegionOf(0) || eng.RegionOf(2) == eng.RegionOf(0)) {
				t.Fatal("a receiver shares the transmitter's region; the test is vacuous")
			}
			eng.NodeMedium(2).SetDown(2, true)
			for k := 1; k <= 40; k++ {
				eng.ScheduleOwnedAt(0, sim.Time(k)*sim.Time(10*time.Millisecond), func() {
					eng.NodeMedium(0).Broadcast(0, []byte("bc"))
				})
			}
			eng.RunFor(time.Second)
			if got[1] == 0 || got[2] != 0 {
				t.Fatalf("loss %v, %d regions: the up receiver got %d copies, the down one %d", loss, regions, got[1], got[2])
			}
			stats[i] = eng.Stats()
		}
		if stats[0] != stats[1] {
			t.Errorf("loss %v: stats at 2 regions %+v, at 1 region %+v", loss, stats[1], stats[0])
		}
	}
}
