package core

import (
	"fmt"
	"testing"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// Second-round integration tests: edge cases in forwarding, buffering,
// cache lifetime, TTL limits, loss resilience and the client API.

func TestLoopbackDelivery(t *testing.T) {
	tn := chain(t, fastConfig(true), 1, nil)
	tn.bootstrap(t)
	n := tn.nodes[1]
	got := 0
	n.OnData = func(src ipv6.Addr, d *wire.Data) {
		got++
		if src != n.Addr() {
			t.Fatalf("loopback src = %v", src)
		}
	}
	n.SendData(n.Addr(), []byte("self"))
	tn.s.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("loopback deliveries = %d", got)
	}
	if n.Metrics().Get("discovery.attempts") != 0 {
		t.Fatal("loopback must not trigger discovery")
	}
}

func TestDirectNeighborDelivery(t *testing.T) {
	tn := chain(t, fastConfig(true), 2, nil)
	tn.bootstrap(t)
	if got := deliverData(tn, 1, 2, 3); got != 3 {
		t.Fatalf("delivered %d of 3 to a direct neighbour", got)
	}
	relays, ok := tn.nodes[1].RouteTo(tn.nodes[2].Addr())
	if !ok || len(relays) != 0 {
		t.Fatalf("direct route should have no relays: %v %v", relays, ok)
	}
}

func TestSendBufferFlushesAfterDiscovery(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, nil)
	tn.bootstrap(t)
	dst := tn.nodes[4].Addr()
	got := 0
	tn.nodes[4].OnData = func(ipv6.Addr, *wire.Data) { got++ }
	// Burst of sends before any route exists: all must queue behind the
	// single discovery and flush together.
	for i := 0; i < 5; i++ {
		tn.nodes[1].SendData(dst, []byte{byte(i)})
	}
	tn.s.RunFor(5 * time.Second)
	if got != 5 {
		t.Fatalf("delivered %d of 5 buffered packets", got)
	}
	if att := tn.nodes[1].Metrics().Get("discovery.attempts"); att != 1 {
		t.Fatalf("discovery.attempts = %v, want 1 (shared discovery)", att)
	}
}

func TestRouteCacheExpiryForcesRediscovery(t *testing.T) {
	cfg := fastConfig(true)
	cfg.RouteTTL = 2 * time.Second
	tn := chain(t, cfg, 3, nil)
	tn.bootstrap(t)
	dst := tn.nodes[3].Addr()
	got := 0
	tn.nodes[3].OnData = func(ipv6.Addr, *wire.Data) { got++ }

	tn.nodes[1].SendData(dst, []byte("a"))
	tn.s.RunFor(3 * time.Second) // past the route TTL
	tn.nodes[1].SendData(dst, []byte("b"))
	tn.s.RunFor(3 * time.Second)

	if got != 2 {
		t.Fatalf("delivered %d of 2", got)
	}
	if att := tn.nodes[1].Metrics().Get("discovery.attempts"); att != 2 {
		t.Fatalf("discovery.attempts = %v, want 2 (expiry forces rediscovery)", att)
	}
}

func TestFloodTTLBoundsDiscovery(t *testing.T) {
	cfg := fastConfig(true)
	cfg.TTL = 2 // destination is 3 hops away: unreachable under this TTL
	tn := chain(t, cfg, 4, nil)
	tn.bootstrap(t)
	tn.nodes[1].SendData(tn.nodes[4].Addr(), []byte("x"))
	tn.s.RunFor(10 * time.Second)
	m := tn.nodes[1].Metrics()
	if m.Get("discovery.failed") != 1 {
		t.Fatalf("discovery should fail under a short TTL: %v", m.Get("discovery.failed"))
	}
}

func TestLossyChannelStillDelivers(t *testing.T) {
	// 10% per-receiver loss across a 3-hop chain: retries in discovery and
	// per-packet acks should still land most packets.
	s := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.BroadcastJitter = time.Millisecond
	rcfg.LossRate = 0.1
	tn := &testnet{s: s, medium: radio.New(s, rcfg)}
	cfg := fastConfig(true)
	positions := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	base := buildNet(t, cfg, positions, nil)
	_ = base
	// buildNet constructs its own sim; rebuild manually is overkill — use
	// the scenario-equivalent: rerun via buildNet but patch the medium's
	// loss is not possible. Instead: accept the default medium and inject
	// loss by dropping via a behavior on a relay.
	tn = base
	gh := &lossyRelay{p: 0.1}
	tn.nodes[2].Behavior = gh
	tn.bootstrap(t)
	got := deliverData(tn, 1, 3, 20)
	if got < 12 {
		t.Fatalf("delivered %d of 20 under 10%% relay loss", got)
	}
	if got == 20 {
		t.Log("note: all packets survived the lossy relay (possible with 10%)")
	}
}

// lossyRelay drops a fraction of everything it relays — a stand-in for a
// noisy link rather than an adversary.
type lossyRelay struct{ p float64 }

func (l *lossyRelay) Intercept(*Node, *wire.Packet, []byte) bool { return false }
func (l *lossyRelay) DropForward(n *Node, pkt *wire.Packet) bool {
	return n.Rand().Float64() < l.p
}

func TestResolveBusyAndMissingName(t *testing.T) {
	tn := chain(t, fastConfig(true), 2, nil)
	tn.bootstrap(t)
	n := tn.nodes[2]
	firstDone, secondDone := false, false
	var firstOK bool
	n.Resolve("ghost", func(a ipv6.Addr, ok bool) { firstDone, firstOK = true, ok })
	// Second resolve for the same name while the first is in flight fails
	// immediately rather than corrupting state.
	n.Resolve("ghost", func(a ipv6.Addr, ok bool) { secondDone = true })
	tn.s.RunFor(8 * time.Second)
	if !firstDone || firstOK {
		t.Fatalf("first resolve: done=%v ok=%v, want done and not found", firstDone, firstOK)
	}
	if !secondDone {
		t.Fatal("second resolve must complete (with failure)")
	}
}

func TestRebindWithoutNameFails(t *testing.T) {
	tn := chain(t, fastConfig(true), 1, nil)
	tn.bootstrap(t)
	var result *bool
	tn.nodes[1].RebindAddress(func(ok bool) { result = &ok })
	tn.s.RunFor(time.Second)
	if result == nil || *result {
		t.Fatal("rebind without a registered name must fail fast")
	}
}

func TestRelayFailureProducesLinkInvalidation(t *testing.T) {
	tn := chain(t, fastConfig(true), 3, nil)
	tn.bootstrap(t)
	dst := tn.nodes[3].Addr()
	if deliverData(tn, 1, 3, 1) != 1 {
		t.Fatal("setup delivery failed")
	}
	// The final relay dies; node 2 detects the dead link while forwarding.
	tn.medium.SetDown(radio.NodeID(3), true)
	tn.nodes[1].SendData(dst, []byte("x"))
	tn.s.RunFor(5 * time.Second)
	if tn.nodes[2].Metrics().Get("fwd.linkfail") == 0 {
		t.Fatal("relay never detected the dead link")
	}
	if tn.nodes[2].Metrics().Get("rerr.sent") == 0 {
		t.Fatal("relay never reported the dead link")
	}
}

func TestConcurrentDiscoveriesIndependent(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, nil)
	tn.bootstrap(t)
	d2, d4 := 0, 0
	tn.nodes[2].OnData = func(ipv6.Addr, *wire.Data) { d2++ }
	tn.nodes[4].OnData = func(ipv6.Addr, *wire.Data) { d4++ }
	tn.nodes[1].SendData(tn.nodes[2].Addr(), []byte("to-2"))
	tn.nodes[1].SendData(tn.nodes[4].Addr(), []byte("to-4"))
	tn.s.RunFor(5 * time.Second)
	if d2 != 1 || d4 != 1 {
		t.Fatalf("deliveries: to-2=%d to-4=%d", d2, d4)
	}
	if att := tn.nodes[1].Metrics().Get("discovery.attempts"); att != 2 {
		t.Fatalf("discovery.attempts = %v, want 2 (one per destination)", att)
	}
}

func TestBaselineCREPFromCache(t *testing.T) {
	// Classic DSR cached replies work without attestation in baseline mode.
	tn := chain(t, fastConfig(false), 4, nil)
	tn.bootstrap(t)
	if deliverData(tn, 2, 4, 1) != 1 {
		t.Fatal("priming failed")
	}
	if deliverData(tn, 1, 4, 1) != 1 {
		t.Fatal("delivery via baseline cached route failed")
	}
	if tn.nodes[2].Metrics().Get("crep.sent") == 0 {
		t.Fatal("baseline intermediate never served from cache")
	}
}

func TestCreditsSurviveRouteChanges(t *testing.T) {
	// Reward accounting is per-identity, not per-route: after a re-route
	// the shared relay keeps its accumulated credit.
	tn := chain(t, fastConfig(true), 3, nil)
	tn.bootstrap(t)
	if deliverData(tn, 1, 3, 3) != 3 {
		t.Fatal("delivery failed")
	}
	relay := tn.nodes[2].Addr()
	creditBefore := tn.nodes[1].Credits().Get(relay)
	if creditBefore <= 1 {
		t.Fatalf("relay earned nothing: %v", creditBefore)
	}
	// Re-discover (cache flush via expiry simulation: direct new traffic
	// after invalidation).
	tn.medium.SetDown(radio.NodeID(3), true)
	tn.medium.SetDown(radio.NodeID(3), false)
	if deliverData(tn, 1, 3, 2) != 2 {
		t.Fatal("second round failed")
	}
	if after := tn.nodes[1].Credits().Get(relay); after < creditBefore {
		t.Fatalf("relay credit regressed: %v -> %v", creditBefore, after)
	}
}

func TestMetricsByteAccountingConsistency(t *testing.T) {
	tn := chain(t, fastConfig(true), 3, nil)
	tn.bootstrap(t)
	deliverData(tn, 1, 3, 3)
	for i, n := range tn.nodes {
		m := n.Metrics()
		total := m.Get("tx.bytes.total")
		split := m.Get("tx.bytes.control") + m.Get("tx.bytes.data") + m.Get("tx.bytes.raw")
		if total != split {
			t.Fatalf("node %d: total %v != control+data+raw %v", i, total, split)
		}
	}
}

// RawBroadcast used to add its bytes to tx.bytes.total without any
// category breakdown, silently breaking total == control + data for any
// node that replays captured frames. The raw bytes now carry their own
// counter folded into the total.
func TestRawBroadcastByteAccounting(t *testing.T) {
	tn := chain(t, fastConfig(true), 1, nil)
	tn.bootstrap(t)
	n := tn.nodes[1]
	before := n.Metrics().Get("tx.bytes.total")
	frame := []byte{0xde, 0xad, 0xbe, 0xef}
	n.RawBroadcast(frame)
	n.RawBroadcast(frame) // replayers retransmit the same capture
	tn.s.RunFor(time.Second)
	m := n.Metrics()
	if got := m.Get("tx.bytes.raw"); got != float64(2*len(frame)) {
		t.Fatalf("tx.bytes.raw = %v, want %d", got, 2*len(frame))
	}
	if got := m.Get("tx.bytes.total") - before; got != float64(2*len(frame)) {
		t.Fatalf("raw bytes not folded into total: delta %v", got)
	}
	total := m.Get("tx.bytes.total")
	split := m.Get("tx.bytes.control") + m.Get("tx.bytes.data") + m.Get("tx.bytes.raw")
	if total != split {
		t.Fatalf("total %v != control+data+raw %v", total, split)
	}
}

// A source-routed send that cannot resolve its next hop encodes into a
// pooled frame and then never transmits; the frame must go straight back
// to the pool (the whole path is synchronous, so the counters are exact).
func TestNoNeighborReleasesFrame(t *testing.T) {
	tn := chain(t, fastConfig(true), 2, nil)
	tn.bootstrap(t)
	tn.s.RunFor(time.Second) // drain in-flight bootstrap frames
	n := tn.nodes[1]
	before := tn.medium.PoolStats()
	ghost := ipv6.SiteLocal(0, 0xfeedface)
	n.SendAlong([]ipv6.Addr{ghost}, tn.nodes[2].Addr(), &wire.Data{Payload: []byte("x")})
	after := tn.medium.PoolStats()
	if n.Metrics().Get("tx.no_neighbor") == 0 {
		t.Fatal("send did not take the no-neighbor path")
	}
	if after.Gets != before.Gets+1 || after.Puts != before.Puts+1 {
		t.Fatalf("frame not released on the no-neighbor path: gets %d->%d puts %d->%d",
			before.Gets, after.Gets, before.Puts, after.Puts)
	}
	if after.Live != before.Live {
		t.Fatalf("live frames leaked: %d -> %d", before.Live, after.Live)
	}
}

func TestDNSAliasOwnership(t *testing.T) {
	tn := chain(t, fastConfig(true), 1, nil)
	tn.bootstrap(t)
	dns, other := tn.nodes[0], tn.nodes[1]
	if !dns.ownsAddr(ipv6.DNS1) || !dns.ownsAddr(ipv6.DNS2) || !dns.ownsAddr(ipv6.DNS3) {
		t.Fatal("DNS node must own all three anycast addresses")
	}
	if other.ownsAddr(ipv6.DNS1) {
		t.Fatal("non-DNS node claims the anycast address")
	}
}

func TestTransmitterIPInference(t *testing.T) {
	a, b, c := ipv6.SiteLocal(0, 1), ipv6.SiteLocal(0, 2), ipv6.SiteLocal(0, 3)
	cases := []struct {
		name string
		pkt  *wire.Packet
		want ipv6.Addr
		ok   bool
	}{
		{"areq origin", &wire.Packet{Src: a, Msg: &wire.AREQ{SIP: a}}, a, true},
		{"areq relayed", &wire.Packet{Src: a, Msg: &wire.AREQ{SIP: a, RR: []ipv6.Addr{b, c}}}, c, true},
		{"audit adv relayed", &wire.Packet{Src: a, Msg: &wire.AuditAdv{SIP: a, RR: []ipv6.Addr{c, b}}}, b, true},
		{"rreq origin", &wire.Packet{Src: a, Msg: &wire.RREQ{SIP: a}}, a, true},
		{"rreq relayed", &wire.Packet{Src: a, Msg: &wire.RREQ{SIP: a, SRR: []wire.HopAttestation{{IP: b}}}}, b, true},
		{"unicast first hop", &wire.Packet{Src: a, Hop: 0, SrcRoute: []ipv6.Addr{b}, Msg: &wire.Ack{}}, a, true},
		{"unicast mid route", &wire.Packet{Src: a, Hop: 1, SrcRoute: []ipv6.Addr{b, c}, Msg: &wire.Ack{}}, b, true},
		{"unicast at dst", &wire.Packet{Src: a, Hop: 2, SrcRoute: []ipv6.Addr{b, c}, Msg: &wire.Ack{}}, c, true},
		{"hop out of range", &wire.Packet{Src: a, Hop: 9, SrcRoute: []ipv6.Addr{b}, Msg: &wire.Ack{}}, ipv6.Addr{}, false},
	}
	for _, tc := range cases {
		var env wire.Envelope
		if err := wire.Scan(wire.Encode(tc.pkt), &env); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, ok := transmitter(&env)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("%s: transmitter = %v,%v want %v,%v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

func TestReverseHelper(t *testing.T) {
	a, b, c := ipv6.SiteLocal(0, 1), ipv6.SiteLocal(0, 2), ipv6.SiteLocal(0, 3)
	rev := reverse([]ipv6.Addr{a, b, c})
	if rev[0] != c || rev[1] != b || rev[2] != a {
		t.Fatalf("reverse = %v", rev)
	}
	if len(reverse(nil)) != 0 {
		t.Fatal("reverse(nil) should be empty")
	}
	// Input untouched.
	orig := []ipv6.Addr{a, b}
	_ = reverse(orig)
	if orig[0] != a {
		t.Fatal("reverse mutated its input")
	}
}

func TestManyFlowsManyNodes(t *testing.T) {
	// A denser smoke test: 7-node chain, three simultaneous flows in both
	// directions; everything delivers on a clean channel.
	tn := chain(t, fastConfig(true), 6, nil)
	tn.bootstrap(t)
	type pair struct{ from, to int }
	pairs := []pair{{1, 6}, {6, 1}, {2, 5}}
	total := 0
	for _, p := range pairs {
		p := p
		dst := tn.nodes[p.to].Addr()
		prev := tn.nodes[p.to].OnData
		tn.nodes[p.to].OnData = func(src ipv6.Addr, d *wire.Data) {
			if prev != nil {
				prev(src, d)
			}
			total++
		}
		for i := 0; i < 3; i++ {
			i := i
			tn.s.After(time.Duration(i)*300*time.Millisecond, func() {
				tn.nodes[p.from].SendData(dst, []byte(fmt.Sprintf("%d->%d #%d", p.from, p.to, i)))
			})
		}
	}
	tn.s.RunFor(10 * time.Second)
	if total != 9 {
		t.Fatalf("delivered %d of 9 across 3 flows", total)
	}
}
