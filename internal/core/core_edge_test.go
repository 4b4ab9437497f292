package core

import (
	"testing"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// Third-round tests: the warn-AREP flood path, reply rejection branches,
// probe verdict branches and API accessors.

func TestWarnFloodCancelsNameSquatting(t *testing.T) {
	// A squatter tries to register a fresh name for an ADDRESS it does not
	// own (it clones the owner's identity). The owner's warn-AREP must
	// reach the DNS over the bootstrap flood path and cancel the pending
	// registration; the squatter's retry under its new address then
	// registers cleanly.
	cfg := fastConfig(true)
	tn := chain(t, cfg, 3, []string{"dns", "owner", "", ""})
	tn.bootstrap(t)

	owner := tn.nodes[1] // adjacent to the DNS
	clone := &identity.Identity{
		Priv: owner.Identity().Priv,
		Pub:  owner.Identity().Pub,
		Rn:   owner.Identity().Rn,
		Addr: owner.Identity().Addr,
		Name: "squatted",
	}
	joiner := New(tn.region, radio.NodeID(77), clone, tn.nodes[0].DNS().PublicKey(), cfg,
		tn.nodes[3].Rand(), nil)
	// Between the DNS (x=0) and the owner (x=200): both hear the AREQ
	// directly, so the DNS opens a pending registration that the owner's
	// warn must cancel.
	pos := geom.Point{X: 100}
	tn.medium.AddNode(radio.NodeID(77), func(sim.Time) geom.Point { return pos }, 0, joiner)
	joiner.Start()
	tn.s.RunFor(8 * time.Second)

	// Two orderings are possible and both are correct protocol behaviour:
	// (a) the warn lands first, the pending registration dies, and the
	//     joiner's retry registers "squatted" under its new address; or
	// (b) the retry races ahead, collides with the still-pending first
	//     reservation, draws a DREP and registers as "squatted-r".
	// In both cases the victim's address must never be bound, and the
	// warn must have been accepted.
	srv := tn.nodes[0].DNS()
	ip, ok := srv.Lookup("squatted")
	if ok && ip == owner.Addr() {
		t.Fatal("squatted name bound to the victim's address")
	}
	bound := false
	for _, name := range []string{"squatted", "squatted-r"} {
		if got, exists := srv.Lookup(name); exists && got == joiner.Addr() {
			bound = true
		}
	}
	if !bound {
		t.Fatalf("joiner (name %q) never registered under its new address", joiner.Name())
	}
	if tn.nodes[0].Metrics().Get("dns.warns_accepted") == 0 {
		t.Fatal("the owner's warn never reached the DNS")
	}
}

func TestWarnFloodRelayedOncePerNode(t *testing.T) {
	// One owner's warn against a cloned claimant in a 5×5 grid at 150 m
	// spacing. Every relay decrements the TTL, so a dedup key covering it
	// would make each hop's copy look new and every configured node would
	// re-flood the warn up to TTL times; keyed without the TTL byte, each
	// configured node relays it exactly once.
	cfg := fastConfig(true)
	const side, spacing = 5, 150.0
	positions := make([]geom.Point, side*side)
	for i := range positions {
		positions[i] = geom.Point{X: float64(i%side) * spacing, Y: float64(i/side) * spacing}
	}
	tn := buildNet(t, cfg, positions, nil)
	tn.bootstrap(t)

	const ownerIdx = 12 // the grid's centre
	owner := tn.nodes[ownerIdx]
	clone := *owner.Identity()
	clone.Name = "squatted" // a named AREQ is what makes the owner warn the DNS
	before := make([]float64, len(tn.nodes))
	for i, n := range tn.nodes {
		before[i] = n.Metrics().Get("tx.AREP")
	}
	joiner := New(tn.region, radio.NodeID(99), &clone, tn.nodes[0].DNS().PublicKey(), cfg,
		tn.nodes[3].Rand(), nil)
	pos := positions[ownerIdx]
	pos.X += 50 // hears the owner directly, so the objection needs no relay
	tn.medium.AddNode(radio.NodeID(99), func(sim.Time) geom.Point { return pos }, 0, joiner)
	joiner.Start()
	tn.s.RunFor(8 * time.Second)

	if tn.nodes[0].Metrics().Get("dns.warns_accepted") == 0 {
		t.Fatal("the owner's warn never reached the DNS")
	}
	if got := joiner.Metrics().Get("tx.AREP"); got != 0 {
		t.Errorf("the probing joiner sent %v AREPs", got)
	}
	for i, n := range tn.nodes {
		sent := n.Metrics().Get("tx.AREP") - before[i]
		want := 1.0 // its one relay of the warn flood
		switch i {
		case 0:
			want = 0 // the DNS consumes the warn
		case ownerIdx:
			want = 2 // the objection and the warn itself
		}
		if sent != want {
			t.Errorf("node %d sent %v AREPs, want %v", i, sent, want)
		}
	}
}

func TestUnsolicitedAndMisaddressedReplies(t *testing.T) {
	tn := chain(t, fastConfig(true), 3, nil)
	tn.bootstrap(t)
	src, relay := tn.nodes[1], tn.nodes[2]

	// An RREP nobody asked for: counted, not installed.
	forged := &wire.RREP{SIP: src.Addr(), DIP: relay.Addr(), Seq: 9999, RR: nil}
	relay.SendAlong(nil, src.Addr(), forged)
	// An RREP addressed to someone else entirely: silently ignored.
	other := &wire.RREP{SIP: relay.Addr(), DIP: src.Addr(), Seq: 9998}
	relay.SendAlong(nil, src.Addr(), other)
	// A CREP nobody asked for.
	crep := &wire.CREP{S2IP: src.Addr(), SIP: relay.Addr(), DIP: ipv6.SiteLocal(0, 0xabcd), Seq2: 7777}
	relay.SendAlong(nil, src.Addr(), crep)
	tn.s.RunFor(2 * time.Second)

	m := src.Metrics()
	if m.Get("rrep.unsolicited") == 0 {
		t.Fatal("unsolicited RREP not counted")
	}
	if m.Get("crep.unsolicited") == 0 {
		t.Fatal("unsolicited CREP not counted")
	}
	if m.Get("route.installed") != 0 {
		t.Fatal("unsolicited replies installed a route")
	}
}

// swallower consumes every data packet that reaches it — even packets
// addressed to itself — without acknowledging, which is what pins the
// probe verdict onto the (predecessor, swallower) segment.
type swallower struct{ eaten int }

func (s *swallower) Intercept(n *Node, pkt *wire.Packet, raw []byte) bool {
	if _, isData := pkt.Msg.(*wire.Data); isData {
		s.eaten++
		return true
	}
	return false
}
func (s *swallower) DropForward(*Node, *wire.Packet) bool { return false }

func TestProbeMidRouteVerdict(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 4, nil)
	tn.bootstrap(t)
	sw := &swallower{}
	tn.nodes[3].Behavior = sw // second relay on the 1 -> 4 route

	dst := tn.nodes[4].Addr()
	for i := 0; i < 5; i++ {
		i := i
		tn.s.After(time.Duration(i)*500*time.Millisecond, func() {
			tn.nodes[1].SendData(dst, []byte("x"))
		})
	}
	tn.s.RunFor(12 * time.Second)

	src := tn.nodes[1]
	if src.Metrics().Get("probe.concluded") == 0 {
		t.Fatal("probe never concluded")
	}
	// The swallower is condemned; the paper's ambiguity also penalizes its
	// honest predecessor, which recovers through later rewards.
	if got := src.Credits().Get(tn.nodes[3].Addr()); got > -50 {
		t.Fatalf("swallower credit = %v, want deeply negative", got)
	}
}

// flaky drops the first k data packets it relays and then behaves.
type flaky struct{ remaining int }

func (f *flaky) Intercept(*Node, *wire.Packet, []byte) bool { return false }
func (f *flaky) DropForward(n *Node, pkt *wire.Packet) bool {
	if _, isData := pkt.Msg.(*wire.Data); isData && f.remaining > 0 {
		f.remaining--
		return true
	}
	return false
}

func TestProbeInconclusiveOnTransientFault(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 3, nil)
	tn.bootstrap(t)
	tn.nodes[2].Behavior = &flaky{remaining: 2} // exactly the loss streak

	dst := tn.nodes[3].Addr()
	for i := 0; i < 6; i++ {
		i := i
		tn.s.After(time.Duration(i)*500*time.Millisecond, func() {
			tn.nodes[1].SendData(dst, []byte("x"))
		})
	}
	tn.s.RunFor(12 * time.Second)

	src := tn.nodes[1]
	if src.Metrics().Get("probe.started") == 0 {
		t.Fatal("transient fault should have triggered a probe")
	}
	if src.Metrics().Get("probe.inconclusive") == 0 {
		t.Fatal("probe against a recovered relay should be inconclusive")
	}
	// The recovered relay keeps a non-condemned score.
	if got := src.Credits().Get(tn.nodes[2].Addr()); got < 0 {
		t.Fatalf("recovered relay was condemned: %v", got)
	}
}

func TestPacketSalvagingRescuesInFlightData(t *testing.T) {
	// Diamond topology: src -> relayA -> {mid | alt} -> dst. The route via
	// mid is established first; relayA separately caches the alt route;
	// with mid dead, data still following the stale route is salvaged by
	// relayA over its cached alternative.
	cfg := fastConfig(true)
	positions := []geom.Point{
		{X: 0, Y: 200},   // dns
		{X: 0, Y: 0},     // src
		{X: 200, Y: 0},   // relayA
		{X: 400, Y: 0},   // mid
		{X: 400, Y: 140}, // alt
		{X: 600, Y: 0},   // dst
	}
	tn := buildNet(t, cfg, positions, nil)
	tn.bootstrap(t)
	src, relayA, dst := tn.nodes[1], tn.nodes[2], tn.nodes[5]
	const midID, altID = radio.NodeID(3), radio.NodeID(4)

	delivered := 0
	dst.OnData = func(ipv6.Addr, *wire.Data) { delivered++ }

	// Step 1: force the mid route into src's cache.
	tn.medium.SetDown(altID, true)
	src.SendData(dst.Addr(), []byte("one"))
	tn.s.RunFor(3 * time.Second)
	relays, ok := src.RouteTo(dst.Addr())
	if !ok || len(relays) != 2 || relays[1] != tn.nodes[3].Addr() {
		t.Fatalf("setup: route = %v, %v; want via mid", relays, ok)
	}

	// Step 2: relayA learns the alt route while mid is dead.
	tn.medium.SetDown(altID, false)
	tn.medium.SetDown(midID, true)
	relayA.SendData(dst.Addr(), []byte("two"))
	tn.s.RunFor(3 * time.Second)

	// Step 3: src still holds the stale mid route; its packet must be
	// salvaged at relayA.
	src.SendData(dst.Addr(), []byte("three"))
	tn.s.RunFor(3 * time.Second)

	if delivered != 3 {
		t.Fatalf("delivered %d of 3 (salvage failed)", delivered)
	}
	if relayA.Metrics().Get("fwd.salvaged") != 1 {
		t.Fatalf("fwd.salvaged = %v, want 1", relayA.Metrics().Get("fwd.salvaged"))
	}
	// The acknowledgement retraced the mixed route: src got all three.
	if src.Metrics().Get("ack.rx")+relayA.Metrics().Get("ack.rx") < 3 {
		t.Fatal("acknowledgements lost after salvage")
	}
	// The source still learned about the break.
	if src.Metrics().Get("rerr.accepted") == 0 {
		t.Fatal("salvage must not suppress the RERR")
	}
}

func TestSalvageDisabledDropsPacket(t *testing.T) {
	cfg := fastConfig(true)
	cfg.Salvage = false
	positions := []geom.Point{
		{X: 0, Y: 200}, {X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 400, Y: 140}, {X: 600, Y: 0},
	}
	tn := buildNet(t, cfg, positions, nil)
	tn.bootstrap(t)
	src, relayA, dst := tn.nodes[1], tn.nodes[2], tn.nodes[5]
	delivered := 0
	dst.OnData = func(ipv6.Addr, *wire.Data) { delivered++ }

	tn.medium.SetDown(radio.NodeID(4), true)
	src.SendData(dst.Addr(), []byte("one"))
	tn.s.RunFor(3 * time.Second)
	tn.medium.SetDown(radio.NodeID(4), false)
	tn.medium.SetDown(radio.NodeID(3), true)
	relayA.SendData(dst.Addr(), []byte("two"))
	tn.s.RunFor(3 * time.Second)
	src.SendData(dst.Addr(), []byte("three"))
	tn.s.RunFor(3 * time.Second)

	if delivered != 2 {
		t.Fatalf("delivered %d, want 2 (third packet dropped without salvage)", delivered)
	}
	if relayA.Metrics().Get("fwd.salvaged") != 0 {
		t.Fatal("salvage ran although disabled")
	}
}

func TestAccessors(t *testing.T) {
	tn := chain(t, fastConfig(true), 1, nil)
	n := tn.nodes[1]
	if n.Sim() != tn.s {
		t.Fatal("Sim accessor wrong")
	}
	if n.LinkID() != radio.NodeID(1) {
		t.Fatal("LinkID accessor wrong")
	}
	if n.DADState().String() != "idle" {
		t.Fatalf("DADState before start = %v", n.DADState())
	}
	tn.bootstrap(t)
	if n.DADState().String() != "configured" {
		t.Fatalf("DADState after bootstrap = %v", n.DADState())
	}
	if n.DADLatency() <= 0 {
		t.Fatal("DADLatency not recorded")
	}
	if n.OutstandingData() != 0 {
		t.Fatal("no data should be outstanding")
	}
	if n.LossStreak(ipv6.SiteLocal(0, 1)) != 0 {
		t.Fatal("fresh loss streak should be zero")
	}
	if n.Config().Secure != true {
		t.Fatal("Config accessor wrong")
	}
	if n.Credits() == nil || n.Metrics() == nil || n.Rand() == nil {
		t.Fatal("nil accessor")
	}
	if n.DNS() != nil {
		t.Fatal("non-DNS node reports a DNS server")
	}
	if tn.nodes[0].DNS() == nil {
		t.Fatal("DNS node reports no server")
	}
}

// Shutdown releases what a departed node would otherwise pin for the rest
// of a session, the four flood seen-sets: the region's flood table keeps
// no record of the node, and its slot goes to the next joiner. Every
// entry point that would read them does nothing afterwards: the node's
// counters stay exactly where Shutdown left them.
func TestShutdownReleasesSeenSets(t *testing.T) {
	cfg := fastConfig(true)
	cfg.Audit.Period = time.Second
	tn := chain(t, cfg, 2, nil)
	tn.bootstrap(t)
	n := tn.nodes[1]
	areq := wire.Encode(&wire.Packet{Src: tn.nodes[2].Addr(), Dst: ipv6.AllNodes, TTL: 2,
		Msg: &wire.AREQ{SIP: tn.nodes[2].Addr(), Seq: 99, Ch: 7}})
	n.Deliver(2, areq)
	n.AuditAdvertise()
	tn.s.RunFor(time.Second)
	if n.Metrics().Get("rx.AREQ") == 0 || n.Metrics().Get("audit.adv_sent") == 0 {
		t.Fatal("the live node neither admitted the AREQ nor advertised")
	}

	floods, slot := tn.region.floods, n.floods.Slot()
	if floods.Held(slot) == 0 {
		t.Fatal("the live node holds no record in the region's flood table")
	}
	n.Shutdown()
	if n.areqSeen != nil || n.rreqSeen != nil || n.dnsFloods != nil || n.auditSeen != nil {
		t.Fatal("Shutdown kept a flood seen-set")
	}
	if held := floods.Held(slot); held != 0 {
		t.Fatalf("after Shutdown the region's flood table still holds %d records of the node", held)
	}
	if joiner := floods.Join(); joiner.Slot() != slot {
		t.Fatalf("a joiner took slot %d, not the departed node's %d", joiner.Slot(), slot)
	} else {
		joiner.Release()
	}
	before := map[string]float64{}
	for _, name := range n.Metrics().CounterNames() {
		before[name] = n.Metrics().Get(name)
	}
	areq = wire.Encode(&wire.Packet{Src: tn.nodes[2].Addr(), Dst: ipv6.AllNodes, TTL: 2,
		Msg: &wire.AREQ{SIP: tn.nodes[2].Addr(), Seq: 100, Ch: 8}})
	n.Deliver(2, areq)
	resolved := 0
	n.Resolve("anything", func(_ ipv6.Addr, ok bool) {
		if ok {
			t.Error("a dead node resolved a name")
		}
		resolved++
	})
	n.AuditAdvertise()
	tn.s.RunFor(2 * time.Second)
	if resolved != 1 {
		t.Fatalf("Resolve callback ran %d times, want once", resolved)
	}
	after := n.Metrics().CounterNames()
	if len(after) != len(before) {
		t.Fatalf("counters after Shutdown: %v, before: %v", after, before)
	}
	for _, name := range after {
		if got := n.Metrics().Get(name); got != before[name] {
			t.Errorf("counter %s moved after Shutdown: %v -> %v", name, before[name], got)
		}
	}
}
