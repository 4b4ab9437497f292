package radio

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"weak"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/mobility"
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
	m := New(s, cfg, 0, nil)
	sinks := make([]*sink, len(positions))
	for i, p := range positions {
		sinks[i] = &sink{}
		m.AddNode(NodeID(i), fixed(p), 0, sinks[i])
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
	m = New(s, cfg, 0, nil)
	m.AddNode(0, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), 0, HandlerFunc(func(from NodeID, p []byte) {
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
	m := New(s, cfg, 0, nil)
	m.AddNode(0, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), 0, HandlerFunc(func(NodeID, []byte) { count++ }))
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
	m := New(s, cfg, 0, nil)
	m.AddNode(0, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{X: 10}), 0, HandlerFunc(func(NodeID, []byte) { got++ }))
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
	m := New(s, cfg, 0, nil)
	got := 0
	// Node 1 moves away at 100 m/s starting in range, out of range after ~2.5s.
	m.AddNode(0, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, func(t sim.Time) geom.Point {
		return geom.Point{X: 100 * t.Seconds()}
	}, 100, HandlerFunc(func(NodeID, []byte) { got++ }))
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
	m := New(s, quiet(), 0, nil)
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
	m := New(s, quiet(), 0, nil)
	for _, try := range []func(){
		func() { m.AddNode(0, nil, 0, HandlerFunc(func(NodeID, []byte) {})) },
		func() { m.AddNode(1, fixed(geom.Point{}), 0, nil) },
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
	m := New(s, Config{}, 0, nil)
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
	m := New(s, quiet(), 0, nil)
	m.AddNode(1, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
}

// TestRemovedPortUnreachable: after every port has broadcast, so every
// port holds a receiver list, a removed port's handler must become
// garbage. A stale entry left in a neighbour's list, or in the backing
// array a list keeps for its rebuild, would pin it. On the moving medium
// a walker that started next to the departed port has walked out of
// reach of every list its neighbourhood could name: in "lapsed" the
// walker's list holding it has lapsed unused; in "shrunk" every port
// broadcasts again first, so the walker's rebuilt list is empty and the
// departed port survives only past its end, in the reused array.
func TestRemovedPortUnreachable(t *testing.T) {
	const n = 30
	const victim = NodeID(n / 2)
	for _, tc := range []struct {
		name        string
		speed       float64 // of the walker, node n-1, which starts next to the victim
		wait        time.Duration
		rebroadcast bool
	}{
		{"static", 0, 0, false},
		{"lapsed", 10, time.Minute, false},
		{"shrunk", 10, time.Minute, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New()
			cfg := quiet()
			cfg.BitrateBps = 0
			m := New(s, cfg, 0, nil)
			for i := 0; i < n-1; i++ {
				m.AddNode(NodeID(i), fixed(geom.Point{X: float64(i) * 40}), 0, &sink{})
			}
			start := geom.Point{X: float64(victim) * 40, Y: 30}
			walker := func(t sim.Time) geom.Point {
				return start.Add(geom.Point{Y: tc.speed * t.Seconds()})
			}
			m.AddNode(n-1, walker, tc.speed, &sink{})
			broadcastAll := func() {
				for id := NodeID(0); id < n; id++ {
					if _, ok := m.ports[id]; ok {
						m.Broadcast(id, []byte("hello"))
					}
				}
				s.Run()
			}
			broadcastAll()
			for id := NodeID(0); id < n; id++ {
				if m.ports[id].rxUntil == noList {
					t.Fatalf("port %d has no receiver list after broadcasting", id)
				}
			}
			s.RunUntil(s.Now().Add(tc.wait))
			if d := m.ports[n-1].pos(s.Now()).Dist(start); tc.speed > 0 && d <= cfg.Range+2*cfg.Range*listSlack {
				t.Fatalf("the walker is still within list reach, %.0f m, of the victim", d)
			}
			if tc.rebroadcast {
				broadcastAll()
				if w := m.ports[n-1]; len(w.rx) != 0 || cap(w.rx) == 0 {
					t.Fatalf("the walker's rebuilt list holds %d ports in an array of %d", len(w.rx), cap(w.rx))
				}
			}
			handler := weak.Make(m.ports[victim].handler.(*sink))
			m.RemoveNode(victim)
			runtime.GC()
			if handler.Value() != nil {
				t.Fatal("the removed port's handler is still reachable from the medium")
			}
			before := m.Stats().RxFrames
			broadcastAll() // the lists rebuild without the removed port
			if m.Stats().RxFrames == before {
				t.Fatal("no frame delivered")
			}
			runtime.KeepAlive(m)
		})
	}
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

// A mover must leave (and re-enter) radio range across re-bucket sweeps
// exactly when its true position does.
func TestGridMovingNodeWithSpeedBound(t *testing.T) {
	s := sim.New()
	cfg := quiet()
	cfg.BitrateBps = 0
	m := New(s, cfg, 0, nil)
	got := 0
	m.AddNode(0, fixed(geom.Point{}), 0, HandlerFunc(func(NodeID, []byte) {}))
	m.AddNode(1, func(t sim.Time) geom.Point {
		return geom.Point{X: 100 * t.Seconds()} // out of 250 m range after 2.5 s
	}, 100, HandlerFunc(func(NodeID, []byte) { got++ }))
	s.After(time.Second, func() { m.Broadcast(0, []byte("early")) })
	s.After(2*time.Second, func() {
		if nb := m.AppendNeighbors(1, nil); len(nb) != 1 || nb[0] != 0 {
			t.Errorf("AppendNeighbors(1) at 2s = %v, want [0]", nb)
		}
	})
	s.After(10*time.Second, func() { m.Broadcast(0, []byte("late")) })
	s.After(11*time.Second, func() {
		if nb := m.AppendNeighbors(0, nil); len(nb) != 0 {
			t.Errorf("AppendNeighbors(0) at 11s = %v, want none", nb)
		}
	})
	s.Run()
	if got != 1 {
		t.Fatalf("deliveries = %d, want 1 (only while in range)", got)
	}
}

// A vanishing speed bound makes the grid's re-bucket interval, slop /
// maxSpeed, too long for the clock. The grid must then never re-bucket,
// as a receiver list whose life is too long never lapses, rather than
// re-bucket at every query.
func TestGridSweepIntervalOverflow(t *testing.T) {
	s := sim.New()
	m := New(s, quiet(), 0, nil)
	m.AddNode(0, fixed(geom.Point{}), 0, &sink{})
	m.AddNode(1, fixed(geom.Point{X: 10}), 1e-12, &sink{})
	sweeps := 0
	for i := 0; i < 100; i++ {
		s.RunFor(time.Second)
		if nb := m.AppendNeighbors(0, nil); len(nb) != 1 {
			t.Fatalf("AppendNeighbors(0) = %v, want [1]", nb)
		}
		if m.lastSweep == s.Now() {
			sweeps++
		}
	}
	if sweeps != 0 {
		t.Fatalf("a 1e-12 m/s mover was re-bucketed on %d of 100 queries", sweeps)
	}
}

// AddNode rejects a speed bound the grid cannot rely on, as it rejects a
// duplicate id: the node is not attached, and the medium still works.
func TestAddNodeRejectsBadSpeedBound(t *testing.T) {
	s := sim.New()
	m, _ := build(s, quiet(), geom.Point{}, geom.Point{X: 10})
	for i, speed := range []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		id := NodeID(2 + i)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddNode with speed bound %v did not panic", speed)
				}
			}()
			m.AddNode(id, fixed(geom.Point{X: 20}), speed, HandlerFunc(func(NodeID, []byte) {}))
		}()
		if m.InRange(0, id) {
			t.Errorf("node with speed bound %v was attached", speed)
		}
	}
	if m.Live() != 2 {
		t.Fatalf("Live = %d, want 2", m.Live())
	}
	m.Broadcast(0, []byte("x"))
	s.Run()
	if m.Stats().RxFrames != 1 {
		t.Fatalf("RxFrames = %d", m.Stats().RxFrames)
	}
}

// AppendNeighbors into a sized buffer must allocate nothing at all.
func TestNeighborsAllocation(t *testing.T) {
	s := sim.New()
	m := New(s, quiet(), 0, nil)
	for i := 0; i < 100; i++ {
		m.AddNode(NodeID(i), fixed(geom.Point{X: float64(i * 20)}), 0, HandlerFunc(func(NodeID, []byte) {}))
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
	m := New(s, quiet(), 0, nil)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := geom.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 4000}
		m.AddNode(NodeID(i), fixed(p), 0, HandlerFunc(func(NodeID, []byte) {}))
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
	m := New(s, cfg, 0, nil)
	for i := 0; i < 50; i++ {
		m.AddNode(NodeID(i), fixed(geom.Point{X: float64(i)}), 0, HandlerFunc(func(NodeID, []byte) {}))
	}
	payload := make([]byte, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Broadcast(0, payload)
		s.Run()
	}
}

// BenchmarkBroadcastFanout1000 broadcasts from 1000 nodes placed uniformly
// on a 125·√1000 m square, perfbench bootstrap's density (about twelve
// receivers per transmission at the default 250 m range), one node after
// another in a loop of serialized transmissions. static fans out from the
// receiver lists; walk moves every node at 5 m/s, so each broadcast walks
// the grid. Every node broadcasts once before the timer starts, so static
// measures built lists.
func BenchmarkBroadcastFanout1000(b *testing.B) {
	for _, bc := range []struct {
		name  string
		speed float64
	}{{"static", 0}, {"walk", 5}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 1000
			side := 125 * math.Sqrt(n)
			area := geom.Rect{W: side, H: side}
			s := sim.New()
			m := New(s, quiet(), 0, nil)
			for i := 0; i < n; i++ {
				start := area.RandomPoint(draw.New(1, draw.Placement, uint64(i)))
				var tr mobility.Track = mobility.Static(start)
				if bc.speed > 0 {
					tr = mobility.NewWalk(mobility.WalkConfig{Region: area, Speed: bc.speed, Epoch: 10 * time.Second},
						start, draw.New(1, draw.Track, uint64(i)))
				}
				m.AddNode(NodeID(i), tr.Position, tr.SpeedBound(), HandlerFunc(func(NodeID, []byte) {}))
			}
			payload := make([]byte, 128)
			for i := 0; i < n; i++ {
				m.Broadcast(NodeID(i), payload)
				s.Run()
			}
			before := m.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Broadcast(NodeID(i%n), payload)
				s.Run()
			}
			b.StopTimer()
			after := m.Stats()
			b.ReportMetric(float64(after.RxFrames-before.RxFrames)/float64(after.TxFrames-before.TxFrames), "rx/tx")
		})
	}
}
