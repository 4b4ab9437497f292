package radio

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/sim"
)

type sink struct {
	frames []struct {
		from    NodeID
		payload string
	}
}

func (s *sink) Deliver(from NodeID, payload []byte) {
	s.frames = append(s.frames, struct {
		from    NodeID
		payload string
	}{from, string(payload)})
}

func fixed(p geom.Point) PositionFunc {
	return func(sim.Time) geom.Point { return p }
}

// build creates a medium with nodes at the given positions and returns
// the sinks in id order.
func build(s *sim.Simulator, cfg Config, positions ...geom.Point) (*Medium, []*sink) {
	m := New(s, cfg)
	sinks := make([]*sink, len(positions))
	for i, p := range positions {
		sinks[i] = &sink{}
		m.AddNode(NodeID(i), fixed(p), sinks[i])
	}
	return m, sinks
}

func quiet() Config {
	cfg := DefaultConfig()
	cfg.BroadcastJitter = 0
	cfg.LossRate = 0
	return cfg
}

func TestBroadcastReachesOnlyInRange(t *testing.T) {
	s := sim.New()
	// Node 1 at 100 m (in range), node 2 at 300 m (out of the 250 m range).
	m, sinks := build(s, quiet(), geom.Point{}, geom.Point{X: 100}, geom.Point{X: 300})
	m.Broadcast(0, []byte("hello"))
	s.Run()
	if len(sinks[1].frames) != 1 || sinks[1].frames[0].payload != "hello" {
		t.Fatalf("in-range node got %v", sinks[1].frames)
	}
	if len(sinks[2].frames) != 0 {
		t.Fatal("out-of-range node received a frame")
	}
	if len(sinks[0].frames) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestUnicastDeliversAndAcks(t *testing.T) {
	s := sim.New()
	m, sinks := build(s, quiet(), geom.Point{}, geom.Point{X: 50}, geom.Point{X: 100})
	var acked *bool
	m.Unicast(0, 1, []byte("data"), func(ok bool) { acked = &ok })
	s.Run()
	if acked == nil || !*acked {
		t.Fatal("unicast not acked")
	}
	if len(sinks[1].frames) != 1 {
		t.Fatalf("addressee frames = %d", len(sinks[1].frames))
	}
	if len(sinks[2].frames) != 0 {
		t.Fatal("unicast delivered to a third party")
	}
}

func TestUnicastOutOfRangeFails(t *testing.T) {
	s := sim.New()
	m, sinks := build(s, quiet(), geom.Point{}, geom.Point{X: 1000})
	var acked *bool
	m.Unicast(0, 1, []byte("data"), func(ok bool) { acked = &ok })
	s.Run()
	if acked == nil || *acked {
		t.Fatal("out-of-range unicast should fail its ACK")
	}
	if len(sinks[1].frames) != 0 {
		t.Fatal("out-of-range unicast delivered")
	}
	if m.Stats().UnicastFails != 1 {
		t.Fatalf("UnicastFails = %d", m.Stats().UnicastFails)
	}
}

func TestDownNodeNeitherSendsNorReceives(t *testing.T) {
	s := sim.New()
	m, sinks := build(s, quiet(), geom.Point{}, geom.Point{X: 10})
	m.SetDown(1, true)
	m.Broadcast(0, []byte("x"))
	var acked *bool
	m.Unicast(0, 1, []byte("y"), func(ok bool) { acked = &ok })
	s.Run()
	if len(sinks[1].frames) != 0 {
		t.Fatal("down node received frames")
	}
	if acked == nil || *acked {
		t.Fatal("unicast to down node should fail")
	}
	// Down sender:
	m.SetDown(1, false)
	m.SetDown(0, true)
	m.Broadcast(0, []byte("z"))
	s.Run()
	if len(sinks[1].frames) != 0 {
		t.Fatal("frame from down sender delivered")
	}
}

func TestSerializationDelaysBackToBackFrames(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 8000 // 1 byte per millisecond
	cfg.PropDelay = 0
	m, _ := build(s, cfg, geom.Point{}, geom.Point{X: 10})
	var deliveries []sim.Time
	m2 := &sink{}
	_ = m2
	// Replace handler to capture times: rebuild with a custom handler.
	s = sim.New()
	m = New(s, cfg)
	m.AddNode(0, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), HandlerFunc(func(from NodeID, p []byte) {
		deliveries = append(deliveries, s.Now())
	}))
	payload := make([]byte, 100) // 100 ms serialization each
	m.Broadcast(0, payload)
	m.Broadcast(0, payload)
	s.Run()
	if len(deliveries) != 2 {
		t.Fatalf("deliveries = %d", len(deliveries))
	}
	if deliveries[0] != sim.Time(100*time.Millisecond) {
		t.Fatalf("first delivery at %v, want 100ms", deliveries[0])
	}
	if deliveries[1] != sim.Time(200*time.Millisecond) {
		t.Fatalf("second delivery at %v, want 200ms (serialized)", deliveries[1])
	}
}

func TestQueueSaturationDrops(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 8000
	cfg.MaxQueueDelay = 150 * time.Millisecond
	m, _ := build(s, cfg, geom.Point{}, geom.Point{X: 10})
	payload := make([]byte, 100) // 100 ms each
	for i := 0; i < 5; i++ {
		m.Broadcast(0, payload)
	}
	s.Run()
	st := m.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("expected queue drops under saturation")
	}
	if st.TxFrames+st.QueueDrops != 5 {
		t.Fatalf("tx=%d drops=%d, want total 5", st.TxFrames, st.QueueDrops)
	}
}

func TestLossRateDropsRoughlyProportionally(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.LossRate = 0.5
	cfg.BitrateBps = 0 // instantaneous so the run is fast
	count := 0
	m := New(s, cfg)
	m.AddNode(0, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), HandlerFunc(func(NodeID, []byte) { count++ }))
	const n = 2000
	for i := 0; i < n; i++ {
		m.Broadcast(0, []byte("x"))
	}
	s.Run()
	if count < n/2-150 || count > n/2+150 {
		t.Fatalf("with 50%% loss, delivered %d of %d", count, n)
	}
	if m.Stats().LostFrames != uint64(n-count) {
		t.Fatalf("LostFrames = %d, want %d", m.Stats().LostFrames, n-count)
	}
}

func TestUnicastRetriesRecoverLosses(t *testing.T) {
	// With 50% loss and 3 retries, per-packet success is 1-0.5^4 = 93.75%.
	s := sim.New()
	cfg := quiet()
	cfg.LossRate = 0.5
	cfg.UnicastRetries = 3
	cfg.BitrateBps = 0
	got := 0
	m := New(s, cfg)
	m.AddNode(0, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), HandlerFunc(func(NodeID, []byte) { got++ }))
	const n = 1000
	acked := 0
	for i := 0; i < n; i++ {
		m.Unicast(0, 1, []byte("x"), func(ok bool) {
			if ok {
				acked++
			}
		})
	}
	s.Run()
	if got < 890 || acked != got {
		t.Fatalf("delivered %d acked %d of %d with retries", got, acked, n)
	}
	if m.Stats().Retries == 0 {
		t.Fatal("no retries recorded")
	}
}

func TestUnicastRetriesExhaust(t *testing.T) {
	// Out-of-range unicasts fail even with retries, after trying them.
	s := sim.New()
	cfg := quiet()
	cfg.UnicastRetries = 2
	m, _ := build(s, cfg, geom.Point{}, geom.Point{X: 5000})
	var acks int
	var ok bool
	m.Unicast(0, 1, []byte("x"), func(b bool) { acks++; ok = b })
	s.Run()
	if acks != 1 || ok {
		t.Fatalf("acked %d times with ok=%v; want exactly one failure", acks, ok)
	}
	if m.Stats().Retries != 2 {
		t.Fatalf("Retries = %d, want 2", m.Stats().Retries)
	}
}

func TestNeighborsAndInRange(t *testing.T) {
	s := sim.New()
	m, _ := build(s, quiet(), geom.Point{}, geom.Point{X: 100}, geom.Point{X: 240}, geom.Point{X: 600})
	nb := m.AppendNeighbors(0, nil)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 2 {
		t.Fatalf("AppendNeighbors(0) = %v", nb)
	}
	if !m.InRange(0, 1) || m.InRange(0, 3) {
		t.Fatal("InRange wrong")
	}
	m.SetDown(1, true)
	nb = m.AppendNeighbors(0, nil)
	if len(nb) != 1 || nb[0] != 2 {
		t.Fatalf("AppendNeighbors(0) after down = %v", nb)
	}
	if m.InRange(0, 1) {
		t.Fatal("down node still in range")
	}
}

func TestMovingNodeLeavesRange(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 0
	m := New(s, cfg)
	got := 0
	// Node 1 moves away at 100 m/s starting in range, out of range after ~2.5s.
	m.AddNode(0, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, func(t sim.Time) geom.Point {
		return geom.Point{X: 100 * t.Seconds()}
	}, HandlerFunc(func(NodeID, []byte) { got++ }))
	s.After(time.Second, func() { m.Broadcast(0, []byte("early")) })
	s.After(10*time.Second, func() { m.Broadcast(0, []byte("late")) })
	s.Run()
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1 (only while in range)", got)
	}
}

func TestTransmitFromUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New()
	m := New(s, quiet())
	m.Broadcast(42, []byte("x"))
}

func TestDownSenderFailsUnicastAck(t *testing.T) {
	s := sim.New()
	m, _ := build(s, quiet(), geom.Point{}, geom.Point{X: 10})
	m.SetDown(0, true)
	var acked *bool
	m.Unicast(0, 1, []byte("x"), func(ok bool) { acked = &ok })
	s.Run()
	if acked == nil || *acked {
		t.Fatal("down sender should fail its ack")
	}
}

func TestSenderDiesMidTransmission(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 8000 // 1 byte/ms: a 100-byte frame takes 100 ms
	m, sinks := build(s, cfg, geom.Point{}, geom.Point{X: 10})
	var acked *bool
	m.Unicast(0, 1, make([]byte, 100), func(ok bool) { acked = &ok })
	s.After(50*time.Millisecond, func() { m.SetDown(0, true) })
	s.Run()
	if len(sinks[1].frames) != 0 {
		t.Fatal("frame delivered although the sender died mid-transmission")
	}
	if acked == nil || *acked {
		t.Fatal("mid-transmission death should fail the ack")
	}
}

func TestNilPositionOrHandlerPanics(t *testing.T) {
	s := sim.New()
	m := New(s, quiet())
	for _, try := range []func(){
		func() { m.AddNode(0, nil, HandlerFunc(func(NodeID, []byte) {})) },
		func() { m.AddNode(1, fixed(geom.Point{}), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			try()
		}()
	}
}

func TestZeroRangeDefaulted(t *testing.T) {
	s := sim.New()
	m := New(s, Config{})
	if m.Config().Range != 250 {
		t.Fatalf("zero range not defaulted: %v", m.Config().Range)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := sim.New()
	m := New(s, quiet())
	m.AddNode(1, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
}

func TestStatsAccounting(t *testing.T) {
	s := sim.New()
	m, _ := build(s, quiet(), geom.Point{}, geom.Point{X: 10})
	m.Broadcast(0, make([]byte, 64))
	m.Unicast(0, 1, make([]byte, 32), nil)
	s.Run()
	st := m.Stats()
	if st.TxFrames != 2 || st.TxBytes != 96 {
		t.Fatalf("tx stats: %+v", st)
	}
	if st.BroadcastSent != 1 || st.UnicastSent != 1 {
		t.Fatalf("send kind stats: %+v", st)
	}
	if st.RxFrames != 2 {
		t.Fatalf("rx stats: %+v", st)
	}
}

// A joiner that reuses a departed mover's ordinal must be re-bucketed on
// its own refresh schedule. The departed node's chain event, still pending
// far in the future, must not stand in for the joiner's chain: the joiner
// would then sit in its spawn bucket until that event fires.
func TestOrdinalReuseStartsOwnRefreshChain(t *testing.T) {
	for _, reuse := range []bool{true, false} {
		s := sim.New()
		m := New(s, quiet())
		nop := HandlerFunc(func(NodeID, []byte) {})
		m.AddNode(0, fixed(geom.Point{}), nop)
		m.SetSpeedBound(0, 0)
		// A 1 m/s mover whose refresher asks for its next refresh 100 s out.
		m.AddNode(1, func(t sim.Time) geom.Point { return geom.Point{X: 1000 + t.Seconds()} }, nop)
		m.SetSpeedBound(1, 1)
		m.SetRefresher(1, func(now sim.Time, _ float64) sim.Time { return now.Add(100 * time.Second) })
		if reuse {
			m.RemoveNode(1) // the joiner below takes over ordinal 1
		}
		// A 50 m/s joiner from 2000 m out: 100 m from the origin at 38 s.
		m.AddNode(2, func(t sim.Time) geom.Point { return geom.Point{X: 2000 - 50*t.Seconds()} }, nop)
		m.SetSpeedBound(2, 50)
		m.SetRefresher(2, func(now sim.Time, slop float64) sim.Time {
			return now.Add(sim.Duration(slop / 50 * float64(time.Second)))
		})
		s.RunUntil(sim.Time(38 * time.Second))
		if nb := m.AppendNeighbors(0, nil); len(nb) != 1 || nb[0] != 2 {
			t.Errorf("reuse=%v: AppendNeighbors(0) at 38 s = %v, want [2]", reuse, nb)
		}
	}
}

// A mover must leave (and re-enter) radio range across re-bucket sweeps
// exactly when its true position does, with or without a declared bound.
func TestGridMovingNodeWithSpeedBound(t *testing.T) {
	for _, declare := range []bool{true, false} {
		s := sim.New()
		cfg := quiet()
		cfg.BitrateBps = 0
		m := New(s, cfg)
		got := 0
		m.AddNode(0, fixed(geom.Point{}), HandlerFunc(func(NodeID, []byte) {}))
		m.AddNode(1, func(t sim.Time) geom.Point {
			return geom.Point{X: 100 * t.Seconds()} // out of 250 m range after 2.5 s
		}, HandlerFunc(func(NodeID, []byte) { got++ }))
		m.SetSpeedBound(0, 0)
		if declare {
			m.SetSpeedBound(1, 100)
		} // else: stays unbounded and is re-bucketed exactly
		s.After(time.Second, func() { m.Broadcast(0, []byte("early")) })
		s.After(2*time.Second, func() {
			if nb := m.AppendNeighbors(1, nil); len(nb) != 1 || nb[0] != 0 {
				t.Errorf("declare=%v: AppendNeighbors(1) at 2s = %v, want [0]", declare, nb)
			}
		})
		s.After(10*time.Second, func() { m.Broadcast(0, []byte("late")) })
		s.After(11*time.Second, func() {
			if nb := m.AppendNeighbors(0, nil); len(nb) != 0 {
				t.Errorf("declare=%v: AppendNeighbors(0) at 11s = %v, want none", declare, nb)
			}
		})
		s.Run()
		if got != 1 {
			t.Fatalf("declare=%v: deliveries = %d, want 1 (only while in range)", declare, got)
		}
	}
}

func TestSetSpeedBoundEdgeCases(t *testing.T) {
	s := sim.New()
	m, _ := build(s, quiet(), geom.Point{}, geom.Point{X: 10})
	m.SetSpeedBound(99, 5) // unknown id: no-op
	m.SetSpeedBound(0, 0)
	m.SetSpeedBound(0, -3)          // back to unbounded
	m.SetSpeedBound(1, math.NaN())  // unbounded
	m.SetSpeedBound(1, math.Inf(1)) // unbounded
	m.Broadcast(0, []byte("x"))
	s.Run()
	if m.Stats().RxFrames != 1 {
		t.Fatalf("RxFrames = %d", m.Stats().RxFrames)
	}
}

// AppendNeighbors into a sized buffer must allocate nothing at all.
func TestNeighborsAllocation(t *testing.T) {
	s := sim.New()
	m := New(s, quiet())
	for i := 0; i < 100; i++ {
		m.AddNode(NodeID(i), fixed(geom.Point{X: float64(i * 20)}), HandlerFunc(func(NodeID, []byte) {}))
		m.SetSpeedBound(NodeID(i), 0)
	}
	buf := make([]NodeID, 0, 128)
	if a := testing.AllocsPerRun(100, func() { buf = m.AppendNeighbors(50, buf[:0]) }); a != 0 {
		t.Errorf("AppendNeighbors allocates %v/op, want 0", a)
	}
}

// BenchmarkNeighbors guards the allocation fix: ~25 in-range neighbours
// out of 1000 attached nodes.
func BenchmarkNeighbors(b *testing.B) {
	s := sim.New()
	m := New(s, quiet())
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := geom.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000}
		m.AddNode(NodeID(i), fixed(p), HandlerFunc(func(NodeID, []byte) {}))
		m.SetSpeedBound(NodeID(i), 0)
	}
	b.Run("grid/append", func(b *testing.B) {
		buf := make([]NodeID, 0, 256)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = m.AppendNeighbors(NodeID(i%1000), buf[:0])
		}
	})
}

func BenchmarkBroadcastFanout50(b *testing.B) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 0
	m := New(s, cfg)
	for i := 0; i < 50; i++ {
		m.AddNode(NodeID(i), fixed(geom.Point{X: float64(i)}), HandlerFunc(func(NodeID, []byte) {}))
	}
	payload := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Broadcast(0, payload)
		s.Run()
	}
}
