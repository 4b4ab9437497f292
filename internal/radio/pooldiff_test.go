package radio_test

// Pooled wire path differential suite: frame recycling must be invisible.
//
// The unpooled comparison drives one traffic script through the two kinds
// of entry point the medium keeps: pooled frames (Frame, BroadcastFrame,
// UnicastFrame, ReleaseFrame), whose buffers the medium recycles, and
// caller-owned buffers (Broadcast, Unicast), which it never touches. Each
// scenario of the equivalence matrix lends its radio config and layout;
// the script floods relayed broadcasts, unicasts in and out of range and
// flaps nodes down. Both runs must log the same deliveries — instant,
// receiver, sender and bytes — the same ACK outcomes and the same
// counters.
//
// The poisoned comparison then runs the scenarios themselves: a run with
// Config.PoisonFrames — every released frame overwritten before reuse —
// must produce a Result identical to the plain pooled run: same receiver
// sets, same delivery ordering, same loss draws, same counters, same
// attack detections. Any use-after-release (a receiver, a retry or a
// remote handoff touching a frame the medium already reclaimed) decodes
// garbage and splits the Results instead of silently reading stale bytes.
//
// The leak suite then drives the frame lifecycle through every exit of
// the transmit path — queue drops, down transmitters, zero-receiver
// broadcasts, failed unicast retries, lossy deliveries — and holds the
// pool's live count at zero once the simulator drains: every checkout has
// exactly one release, whatever path the frame took.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/geom"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/sim"
)

// wireEvent is one logged outcome of the traffic script: a delivery, or a
// unicast's final ACK outcome (To is then the addressee and Bytes holds
// "ack" or "nack").
type wireEvent struct {
	At       sim.Time
	To, From radio.NodeID
	Bytes    string
}

// wireTrace is everything a traffic-script run can observe.
type wireTrace struct {
	Events []wireEvent
	Stats  radio.Stats
}

// Traffic-script frame layout: kind, hops left, origin, sequence number
// (two bytes), then filler.
const (
	scriptFlood = iota
	scriptUnicast
)

// runWireScript attaches the scenario's nodes, at their initial
// positions, to a fresh medium with the scenario's radio config and plays
// the seeded traffic script through pooled frames or caller-owned
// buffers. Link-layer retries are switched on, so failed unicasts
// retransmit the buffer they already hold. Every received flood frame is
// relayed once per node while hops remain: a receiver copies the borrowed
// frame into a buffer of its own, the way the protocol's forwarders do.
func runWireScript(t *testing.T, sc *scenario.Scenario, seed int64, pooled bool) (wireTrace, *radio.Medium) {
	t.Helper()
	s := sim.New()
	cfg := sc.Cfg.Radio
	cfg.UnicastRetries = 2
	m := radio.New(s, cfg, seed, nil)
	n := sc.Cfg.N
	var tr wireTrace
	buf := func(size int) []byte {
		if pooled {
			return m.Frame(size)
		}
		return make([]byte, 0, size)
	}
	broadcast := func(from radio.NodeID, f []byte) {
		if pooled {
			m.BroadcastFrame(from, f)
		} else {
			m.Broadcast(from, f)
		}
	}
	unicast := func(from, to radio.NodeID, f []byte) {
		acked := func(ok bool) {
			verdict := "nack"
			if ok {
				verdict = "ack"
			}
			tr.Events = append(tr.Events, wireEvent{s.Now(), to, from, verdict})
		}
		if pooled {
			m.UnicastFrame(from, to, f, acked)
		} else {
			m.Unicast(from, to, f, acked)
		}
	}
	relayed := make([]map[string]bool, n)
	for i := 0; i < n; i++ {
		id := radio.NodeID(i)
		p := sc.Engine().PosNow(id)
		relayed[i] = map[string]bool{}
		m.AddNode(id, func(sim.Time) geom.Point { return p }, 0, radio.HandlerFunc(func(from radio.NodeID, f []byte) {
			tr.Events = append(tr.Events, wireEvent{s.Now(), id, from, string(f)})
			if f[0] != scriptFlood || f[1] == 0 || relayed[id][string(f[2:5])] {
				return
			}
			relayed[id][string(f[2:5])] = true
			r := append(buf(len(f)), f...)
			r[1]--
			broadcast(id, r)
		}))
	}
	rng := rand.New(rand.NewSource(seed))
	const originations = 300
	for k := 0; k < originations; k++ {
		from := radio.NodeID(rng.Intn(n))
		kind, to, pick := rng.Intn(5), radio.NodeID(rng.Intn(n)), rng.Intn(n)
		size := 37 + rng.Intn(600)
		flap, flapDown := radio.NodeID(rng.Intn(n)), rng.Intn(3) == 0
		s.At(sim.Time(k)*sim.Time(25*time.Millisecond), func() {
			m.SetDown(flap, flapDown)
			f := append(buf(size), byte(scriptFlood), 3, byte(from), byte(k>>8), byte(k))
			for len(f) < size {
				f = append(f, byte(k+len(f)))
			}
			switch kind {
			case 0, 1:
				broadcast(from, f)
			case 2: // to a current neighbour, when there is one
				if nb := m.AppendNeighbors(from, nil); len(nb) > 0 {
					to = nb[pick%len(nb)]
				}
				fallthrough
			case 3:
				f[0] = scriptUnicast
				unicast(from, to, f)
			case 4: // encoded, then abandoned before transmission
				if pooled {
					m.ReleaseFrame(f)
				}
			}
		})
	}
	s.Run()
	tr.Stats = m.Stats()
	return tr, m
}

// String shows an event with its bytes cut to the frame header.
func (e wireEvent) String() string {
	return fmt.Sprintf("%v %d<-%d %d bytes %.8q", e.At, e.To, e.From, len(e.Bytes), e.Bytes)
}

// firstDivergence reports the first event at which two traces differ.
func firstDivergence(a, b []wireEvent) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("event %d: unpooled %v, pooled %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("unpooled logged %d events, pooled %d", len(a), len(b))
}

func TestFramePoolEquivalentToUnpooled(t *testing.T) {
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range oracleSeeds() {
				sc := buildSeeded(t, mk, seed)
				plain, pm := runWireScript(t, sc, seed, false)
				pooled, m := runWireScript(t, sc, seed, true)
				if !reflect.DeepEqual(plain.Events, pooled.Events) {
					t.Fatalf("seed %d: pooled and unpooled deliveries diverged: %s",
						seed, firstDivergence(plain.Events, pooled.Events))
				}
				if plain.Stats != pooled.Stats {
					t.Fatalf("seed %d: counters diverged:\nunpooled: %+v\n  pooled: %+v", seed, plain.Stats, pooled.Stats)
				}
				// The comparison is only worth something if the script
				// reached every exit of the transmit path and the pooled
				// run really recycled while the unpooled run never drew.
				st := plain.Stats
				if st.RxFrames < 1000 || st.Retries == 0 || st.UnicastFails == 0 || st.QueueDrops == 0 {
					t.Fatalf("seed %d: script missed a transmit path: %+v", seed, st)
				}
				if ps := pm.PoolStats(); ps.Gets != 0 {
					t.Fatalf("seed %d: unpooled run drew from the pool: %+v", seed, ps)
				}
				ps := m.PoolStats()
				if ps.Live != 0 || ps.Misses*4 > ps.Gets {
					t.Fatalf("seed %d: pooled run leaked or barely recycled: %+v", seed, ps)
				}
			}
		})
	}
}

// runPoisoned builds and runs one configuration with frame poisoning on
// or off.
func runPoisoned(t *testing.T, mk func() scenario.Config, seed int64, poison bool) *scenario.Result {
	t.Helper()
	cfg := mk()
	cfg.Seed = seed
	cfg.Radio.PoisonFrames = poison
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (poison=%v, seed=%d): %v", poison, seed, err)
	}
	return scenario.NewLive(sc).Run(context.Background())
}

func TestPoisonedFramePoolEquivalent(t *testing.T) {
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range oracleSeeds() {
				plain := runPoisoned(t, mk, seed, false)
				poisoned := runPoisoned(t, mk, seed, true)
				if !reflect.DeepEqual(plain, poisoned) {
					t.Errorf("seed %d: poisoned run diverged from plain pooled run:\n  plain: %v\npoisoned: %v",
						seed, plain, poisoned)
				}
			}
		})
	}
}

// An adversarial network with a replay attacker holds the byte-accounting
// invariant on every node: raw replayed frames carry their own counter
// and fold into the total alongside control and data bytes.
func TestReplayScenarioByteAccounting(t *testing.T) {
	mk := equivalenceMatrix()["battlefield"]
	cfg := mk()
	cfg.Seed = 2
	cfg.Behaviors[14] = &attack.Replayer{}
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scenario.NewLive(sc).Run(context.Background())
	raw := 0.0
	for i, n := range sc.Nodes {
		m := n.Metrics()
		total := m.Get("tx.bytes.total")
		split := m.Get("tx.bytes.control") + m.Get("tx.bytes.data") + m.Get("tx.bytes.raw")
		if total != split {
			t.Errorf("node %d: tx.bytes.total %v != control+data+raw %v", i, total, split)
		}
		raw += m.Get("tx.bytes.raw")
	}
	if raw == 0 {
		t.Fatal("replayer transmitted no raw bytes; the invariant was not exercised")
	}
}

// poolChurnNet is a bare medium exercising every frame-lifecycle exit:
// nodes 0..7 cluster in range of each other, node 8 sits isolated beyond
// range (unicasts to it exhaust retries), node 9 flaps down (transmit-time
// and completion-time drops).
func poolChurnNet(t *testing.T) (*sim.Simulator, *radio.Medium) {
	t.Helper()
	s := sim.New()
	cfg := radio.DefaultConfig()
	cfg.LossRate = 0.3
	cfg.UnicastRetries = 2
	cfg.MaxQueueDelay = 2 * time.Millisecond // bursts overflow the queue
	cfg.BroadcastJitter = time.Millisecond
	cfg.PoisonFrames = true
	m := radio.New(s, cfg, 0, nil)
	for i := 0; i < 8; i++ {
		p := geom.Point{X: float64(i) * 20, Y: 0}
		m.AddNode(radio.NodeID(i), func(sim.Time) geom.Point { return p }, 0, radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	}
	far := geom.Point{X: 1e6, Y: 1e6}
	m.AddNode(8, func(sim.Time) geom.Point { return far }, 0, radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	flappy := geom.Point{X: 80, Y: 10}
	m.AddNode(9, func(sim.Time) geom.Point { return flappy }, 0, radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	return s, m
}

func TestFramePoolLeakFree(t *testing.T) {
	s, m := poolChurnNet(t)
	rounds, perNode := 40, 6
	for r := 0; r < rounds; r++ {
		m.SetDown(9, r%2 == 0)
		for i := 0; i < 8; i++ {
			from := radio.NodeID(i)
			for k := 0; k < perNode; k++ {
				f := m.Frame(64 + 32*k)
				f = append(f, fmt.Sprintf("frame %d/%d/%d", r, i, k)...)
				switch k % 4 {
				case 0:
					m.BroadcastFrame(from, f)
				case 1:
					m.UnicastFrame(from, radio.NodeID((i+1)%8), f, nil) // in range, lossy
				case 2:
					m.UnicastFrame(from, 8, f, func(bool) {}) // out of range: retries exhaust
				case 3:
					m.UnicastFrame(from, 9, f, nil) // flapping receiver
				}
			}
		}
		// Isolated node broadcasts into the void: zero-receiver completes.
		v := m.Frame(16)
		m.BroadcastFrame(8, append(v, "void"...))
		// Flapping node transmits while down: transmit-time queue drop.
		d := m.Frame(16)
		m.BroadcastFrame(9, append(d, "down"...))
		s.Run() // drain everything in flight before the next burst
	}
	st := m.PoolStats()
	if st.Live != 0 {
		t.Fatalf("pool leak: %d frames still live after drain (gets %d, puts %d)",
			st.Live, st.Gets, st.Puts)
	}
	want := uint64(rounds * (8*perNode + 2))
	if st.Gets != want {
		t.Fatalf("gets = %d, want %d", st.Gets, want)
	}
	if st.HighWater > 8*perNode+2 {
		t.Fatalf("high water %d exceeds one burst's in-flight bound %d", st.HighWater, 8*perNode+2)
	}
	// Recycling must actually happen: steady state draws from the free
	// lists, not the allocator.
	if st.Misses*4 > st.Gets {
		t.Fatalf("pool barely recycles: %d misses over %d gets", st.Misses, st.Gets)
	}
	if stats := m.Stats(); stats.QueueDrops == 0 || stats.Retries == 0 || stats.UnicastFails == 0 || stats.LostFrames == 0 {
		t.Fatalf("churn did not cover the drop paths: %+v", stats)
	}
}

// A caller that encodes a frame and then abandons the transmission must
// hand the buffer back.
func TestReleaseFrameWithoutTransmit(t *testing.T) {
	s := sim.New()
	m := radio.New(s, radio.DefaultConfig(), 0, nil)
	f := m.Frame(100)
	m.ReleaseFrame(f)
	st := m.PoolStats()
	if st.Gets != 1 || st.Puts != 1 || st.Live != 0 {
		t.Fatalf("release not accounted: %+v", st)
	}
}
