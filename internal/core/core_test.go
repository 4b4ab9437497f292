package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sbr6/internal/dnssrv"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// testnet is a small fixed-topology network: node 0 is always the DNS
// server. Positions are spaced so consecutive indices are neighbours.
type testnet struct {
	s      *sim.Simulator
	medium *radio.Medium
	nodes  []*Node
}

func fastConfig(secure bool) Config {
	var cfg Config
	if secure {
		cfg = DefaultConfig()
	} else {
		cfg = BaselineConfig()
	}
	cfg.DAD.Timeout = 300 * time.Millisecond
	cfg.DiscoveryTimeout = 500 * time.Millisecond
	cfg.AckTimeout = 400 * time.Millisecond
	cfg.ResolveTimeout = 2 * time.Second
	return cfg
}

// buildNet creates nodes at the given positions; names[i] may be "".
func buildNet(t testing.TB, cfg Config, positions []geom.Point, names []string) *testnet {
	t.Helper()
	s := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.BroadcastJitter = time.Millisecond
	medium := radio.New(s, rcfg)
	tn := &testnet{s: s, medium: medium}

	dnsIdent, err := identity.New(cfg.Suite, rand.New(rand.NewSource(1000)), "dns")
	if err != nil {
		t.Fatal(err)
	}
	dcfg := dnssrv.DefaultConfig()
	dcfg.CommitDelay = 300 * time.Millisecond
	dcfg.Suite = cfg.Suite

	for i, pos := range positions {
		name := ""
		if names != nil {
			name = names[i]
		}
		var ident *identity.Identity
		if i == 0 {
			ident = dnsIdent
		} else {
			ident, err = identity.New(cfg.Suite, rand.New(rand.NewSource(int64(1000+i))), name)
			if err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(5000 + i)))
		n := New(s, medium, radio.NodeID(i), ident, dnsIdent.Pub, cfg, rng, nil)
		if i == 0 {
			n.AttachDNS(dnssrv.New(s, rng, dnsIdent, dcfg, nil))
		}
		p := pos
		medium.AddNode(radio.NodeID(i), func(sim.Time) geom.Point { return p }, n)
		tn.nodes = append(tn.nodes, n)
	}
	return tn
}

// bootstrap staggers DAD by more than the objection window so that earlier
// nodes are configured (and can relay floods to the DNS) before later ones
// probe, then runs until everyone is configured.
func (tn *testnet) bootstrap(t testing.TB) {
	t.Helper()
	step := tn.nodes[0].Config().DAD.Timeout + 100*time.Millisecond
	for i, n := range tn.nodes {
		n := n
		tn.s.After(time.Duration(i)*step, n.Start)
	}
	tn.s.RunFor(time.Duration(len(tn.nodes))*step + 5*time.Second)
	for i, n := range tn.nodes {
		if !n.Configured() {
			t.Fatalf("node %d not configured (state %v)", i, n.DADState())
		}
	}
}

// chain builds a DNS + k extra nodes in a line, 200 m apart (250 m range).
func chain(t testing.TB, cfg Config, k int, names []string) *testnet {
	positions := make([]geom.Point, k+1)
	for i := range positions {
		positions[i] = geom.Point{X: float64(i) * 200}
	}
	return buildNet(t, cfg, positions, names)
}

func TestBootstrapAssignsUniqueAddresses(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, []string{"dns", "a", "b", "c", "d"})
	tn.bootstrap(t)
	seen := make(map[ipv6.Addr]bool)
	for i, n := range tn.nodes {
		if !n.Addr().IsSiteLocal() {
			t.Fatalf("node %d address %v not site-local", i, n.Addr())
		}
		if seen[n.Addr()] {
			t.Fatalf("duplicate address %v", n.Addr())
		}
		seen[n.Addr()] = true
	}
	// All names committed at the DNS.
	srv := tn.nodes[0].DNS()
	tn.s.RunFor(time.Second)
	for _, name := range []string{"a", "b", "c", "d"} {
		if _, ok := srv.Lookup(name); !ok {
			t.Fatalf("name %q not registered", name)
		}
	}
}

func TestDuplicateAddressResolvedByDAD(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 2, nil)
	tn.bootstrap(t)

	owner := tn.nodes[1]
	// A new node whose identity collides exactly with node 1 (same key,
	// same modifier -> same CGA address) joins next to it.
	clone := &identity.Identity{
		Priv: owner.Identity().Priv,
		Pub:  owner.Identity().Pub,
		Rn:   owner.Identity().Rn,
		Addr: owner.Identity().Addr,
	}
	rng := rand.New(rand.NewSource(424242))
	joiner := New(tn.s, tn.medium, radio.NodeID(99), clone, tn.nodes[0].DNS().PublicKey(), cfg, rng, nil)
	pos := geom.Point{X: 250} // neighbour of node 1
	tn.medium.AddNode(radio.NodeID(99), func(sim.Time) geom.Point { return pos }, joiner)

	oldAddr := owner.Addr()
	joiner.Start()
	tn.s.RunFor(5 * time.Second)

	if !joiner.Configured() {
		t.Fatalf("joiner stuck in %v", joiner.DADState())
	}
	if joiner.Addr() == oldAddr {
		t.Fatal("joiner kept the duplicate address")
	}
	if owner.Addr() != oldAddr {
		t.Fatal("owner's address must not change")
	}
	if owner.Metrics().Get("dad.objections_sent") == 0 {
		t.Fatal("owner never objected")
	}
	if joiner.Metrics().Get("dad.arep_accepted") == 0 {
		t.Fatal("joiner never accepted the objection")
	}
}

func TestDuplicateNameRenamedViaDREP(t *testing.T) {
	cfg := fastConfig(true)
	// Node 1 registers "printer" first; node 2 tries the same name later.
	tn := chain(t, cfg, 2, []string{"dns", "printer", "printer"})
	for i, n := range tn.nodes {
		n := n
		// Large stagger so node 1's registration commits before node 2
		// begins DAD.
		tn.s.After(time.Duration(i)*time.Second, n.Start)
	}
	tn.s.RunFor(10 * time.Second)

	n1, n2 := tn.nodes[1], tn.nodes[2]
	if !n1.Configured() || !n2.Configured() {
		t.Fatal("nodes not configured")
	}
	if n1.Name() != "printer" {
		t.Fatalf("first registrant lost its name: %q", n1.Name())
	}
	if n2.Name() != "printer-r" {
		t.Fatalf("second registrant name = %q, want printer-r", n2.Name())
	}
	srv := tn.nodes[0].DNS()
	if ip, ok := srv.Lookup("printer"); !ok || ip != n1.Addr() {
		t.Fatal("printer not bound to first registrant")
	}
	if ip, ok := srv.Lookup("printer-r"); !ok || ip != n2.Addr() {
		t.Fatal("renamed registration missing")
	}
}

// deliverData sends payloads and runs the sim; returns delivered count.
func deliverData(tn *testnet, from, to int, count int) int {
	dst := tn.nodes[to].Addr()
	delivered := 0
	tn.nodes[to].OnData = func(src ipv6.Addr, d *wire.Data) { delivered++ }
	for i := 0; i < count; i++ {
		i := i
		tn.s.After(time.Duration(i)*200*time.Millisecond, func() {
			tn.nodes[from].SendData(dst, []byte(fmt.Sprintf("payload-%d", i)))
		})
	}
	tn.s.RunFor(time.Duration(count)*200*time.Millisecond + 5*time.Second)
	return delivered
}

func TestRouteDiscoveryAndDelivery(t *testing.T) {
	for _, secure := range []bool{true, false} {
		secure := secure
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			tn := chain(t, fastConfig(secure), 4, nil)
			tn.bootstrap(t)
			if got := deliverData(tn, 1, 4, 5); got != 5 {
				t.Fatalf("delivered %d of 5", got)
			}
			src := tn.nodes[1]
			if src.Metrics().Get("ack.rx") != 5 {
				t.Fatalf("acks = %v", src.Metrics().Get("ack.rx"))
			}
			relays, ok := src.RouteTo(tn.nodes[4].Addr())
			if !ok || len(relays) != 2 {
				t.Fatalf("route = %v, %v; want 2 relays", relays, ok)
			}
		})
	}
}

func TestCreditsRewardRelays(t *testing.T) {
	tn := chain(t, fastConfig(true), 3, nil)
	tn.bootstrap(t)
	if got := deliverData(tn, 1, 3, 4); got != 4 {
		t.Fatalf("delivered %d of 4", got)
	}
	src := tn.nodes[1]
	relay := tn.nodes[2].Addr()
	// Initial 1 + 4 rewards = 5.
	if got := src.Credits().Get(relay); got != 5 {
		t.Fatalf("relay credit = %v, want 5", got)
	}
}

func TestSecureCostsMoreControlBytes(t *testing.T) {
	run := func(secure bool) float64 {
		tn := chain(t, fastConfig(secure), 3, nil)
		tn.bootstrap(t)
		deliverData(tn, 1, 3, 3)
		total := 0.0
		for _, n := range tn.nodes {
			total += n.Metrics().Get("tx.bytes.control")
		}
		return total
	}
	secureBytes, plainBytes := run(true), run(false)
	if secureBytes <= plainBytes {
		t.Fatalf("secure control bytes %v should exceed baseline %v", secureBytes, plainBytes)
	}
}

func TestCREPAnswersFromCache(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, nil)
	tn.bootstrap(t)
	// Prime node 2's cache with an attested route to node 4.
	if got := deliverData(tn, 2, 4, 2); got != 2 {
		t.Fatal("priming traffic failed")
	}
	// Node 1 now discovers node 4; node 2 should answer from cache.
	if got := deliverData(tn, 1, 4, 2); got != 2 {
		t.Fatal("delivery via CREP route failed")
	}
	if tn.nodes[2].Metrics().Get("crep.sent") == 0 {
		t.Fatal("intermediate never served a CREP")
	}
	if tn.nodes[1].Metrics().Get("rx.CREP") == 0 {
		t.Fatal("source never received a CREP")
	}
}

// hole is a black-hole Behavior: it participates in routing (so routes are
// attracted through it) but silently drops the data plane it should relay.
type hole struct{ dropped int }

func (h *hole) Intercept(*Node, *wire.Packet, []byte) bool { return false }
func (h *hole) DropForward(n *Node, pkt *wire.Packet) bool {
	switch pkt.Msg.(type) {
	case *wire.Data, *wire.Ack:
		h.dropped++
		return true
	default:
		return false
	}
}

func TestBlackHoleProbingCondemnsAttacker(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 4, nil)
	tn.bootstrap(t)
	bh := &hole{}
	tn.nodes[3].Behavior = bh // on the path 1 -> 4

	dst := tn.nodes[4].Addr()
	for i := 0; i < 6; i++ {
		i := i
		tn.s.After(time.Duration(i)*500*time.Millisecond, func() {
			tn.nodes[1].SendData(dst, []byte("x"))
		})
	}
	tn.s.RunFor(15 * time.Second)

	src := tn.nodes[1]
	bhAddr := tn.nodes[3].Addr()
	if bh.dropped == 0 {
		t.Fatal("black hole never saw traffic")
	}
	if src.Metrics().Get("probe.started") == 0 {
		t.Fatal("source never probed")
	}
	if got := src.Credits().Get(bhAddr); got > -50 {
		t.Fatalf("black hole credit = %v, want deeply negative", got)
	}
}

func TestLinkBreakTriggersRERRAndRediscovery(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, nil)
	// Add a redundant relay next to node 3 so an alternate path exists:
	// place it between 2 and 4 but offset in Y.
	tn.bootstrap(t)
	dst := tn.nodes[4].Addr()
	delivered := 0
	tn.nodes[4].OnData = func(ipv6.Addr, *wire.Data) { delivered++ }

	tn.nodes[1].SendData(dst, []byte("first"))
	tn.s.RunFor(3 * time.Second)
	if delivered != 1 {
		t.Fatal("initial delivery failed")
	}
	// Node 3 (relay) dies; next packet hits a broken link at node 2.
	tn.medium.SetDown(radio.NodeID(3), true)
	tn.nodes[1].SendData(dst, []byte("second"))
	tn.s.RunFor(5 * time.Second)
	if tn.nodes[1].Metrics().Get("rerr.accepted") == 0 {
		t.Fatal("source never accepted a RERR")
	}
	if _, stillCached := tn.nodes[1].RouteTo(dst); stillCached {
		t.Fatal("broken route still cached")
	}
}

func TestForgedRERRRejectedOnlyWhenSecure(t *testing.T) {
	for _, secure := range []bool{true, false} {
		secure := secure
		t.Run(fmt.Sprintf("secure=%v", secure), func(t *testing.T) {
			tn := chain(t, fastConfig(secure), 3, nil)
			tn.bootstrap(t)
			dst := tn.nodes[3].Addr()
			if deliverData(tn, 1, 3, 1) != 1 {
				t.Fatal("setup delivery failed")
			}
			src := tn.nodes[1]
			relay := tn.nodes[2] // honest relay on the route

			// The attacker (node 3's neighbour? use node 2's link) forges a
			// RERR claiming the relay lost its link — without the relay's
			// key. Sent from node 3 directly to the source route.
			forger := tn.nodes[3]
			forged := &wire.RERR{IIP: relay.Addr(), NIP: dst}
			if secure {
				// Attacker signs with its own key: CGA check must fail.
				forged.Sig = forger.Identity().Sign(wire.SigRERR(relay.Addr(), dst))
				forged.IPK = forger.Identity().Pub.Bytes()
				forged.Irn = forger.Identity().Rn
			}
			forger.SendAlong([]ipv6.Addr{relay.Addr()}, src.Addr(), forged)
			tn.s.RunFor(2 * time.Second)

			_, routeAlive := src.RouteTo(dst)
			if secure {
				if src.Metrics().Get("rerr.rejected") == 0 {
					t.Fatal("forged RERR not rejected")
				}
				if !routeAlive {
					t.Fatal("forged RERR tore down a route despite security")
				}
			} else {
				if !(src.Metrics().Get("rerr.accepted") > 0) {
					t.Fatal("baseline should accept the forged RERR")
				}
				if routeAlive {
					t.Fatal("baseline route should have been torn down")
				}
			}
		})
	}
}

func TestResolveThroughDNS(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 3, []string{"dns", "server", "", ""})
	tn.bootstrap(t)
	tn.s.RunFor(time.Second) // let registration commit

	var got ipv6.Addr
	var ok bool
	answered := false
	tn.nodes[3].Resolve("server", func(a ipv6.Addr, found bool) {
		got, ok, answered = a, found, true
	})
	tn.s.RunFor(5 * time.Second)
	if !answered {
		t.Fatal("resolve never completed")
	}
	if !ok || got != tn.nodes[1].Addr() {
		t.Fatalf("resolved %v, %v; want %v", got, ok, tn.nodes[1].Addr())
	}
	// Negative lookup also completes, signed.
	answered = false
	tn.nodes[3].Resolve("ghost", func(a ipv6.Addr, found bool) {
		ok, answered = found, true
	})
	tn.s.RunFor(5 * time.Second)
	if !answered || ok {
		t.Fatalf("negative resolve: answered=%v found=%v", answered, ok)
	}
}

func TestRebindAddressUpdatesDNS(t *testing.T) {
	cfg := fastConfig(true)
	tn := chain(t, cfg, 2, []string{"dns", "mobile", ""})
	tn.bootstrap(t)
	tn.s.RunFor(time.Second)

	host := tn.nodes[1]
	oldAddr := host.Addr()
	var result *bool
	host.RebindAddress(func(ok bool) { result = &ok })
	tn.s.RunFor(8 * time.Second)

	if result == nil || !*result {
		t.Fatalf("rebind did not succeed: %v", result)
	}
	if host.Addr() == oldAddr {
		t.Fatal("address did not change")
	}
	ip, ok := tn.nodes[0].DNS().Lookup("mobile")
	if !ok || ip != host.Addr() {
		t.Fatalf("DNS binding = %v, %v; want %v", ip, ok, host.Addr())
	}
}

func TestMalformedFramesCounted(t *testing.T) {
	tn := chain(t, fastConfig(true), 2, nil)
	tn.bootstrap(t)
	tn.nodes[1].RawBroadcast([]byte{0xde, 0xad})
	tn.s.RunFor(time.Second)
	if tn.nodes[0].Metrics().Get("rx.malformed") == 0 {
		t.Fatal("malformed frame not counted")
	}

	// Copies of frames the receiver already took in, corrupted past their
	// flood identity. Admission would drop intact copies undecoded, but a
	// corrupt copy must still be caught by the scan: rx.malformed, never
	// rx.frames.
	src, rx := tn.nodes[1], tn.nodes[2].Metrics()
	ghost, ghost2 := ipv6.SiteLocal(0, 0xfeed), ipv6.SiteLocal(0, 0xbeef)
	sig, pk := []byte{1, 2, 3}, []byte{4, 5}
	hop := wire.HopAttestation{IP: ghost2, Sig: sig, PK: pk, Rn: 6}
	flood := func(m wire.Message) []byte {
		return wire.Encode(&wire.Packet{Src: ghost, Dst: ipv6.AllNodes, TTL: 8, Msg: m})
	}
	areq := flood(&wire.AREQ{SIP: ghost, Seq: 1, DN: "x", Ch: 2, RR: []ipv6.Addr{ghost2}})
	rreq := flood(&wire.RREQ{SIP: ghost, DIP: ghost2, Seq: 3, SRR: []wire.HopAttestation{hop}, SrcSig: sig, SPK: pk, Srn: 7})
	adv := flood(&wire.AuditAdv{SIP: ghost, Seq: 4, Ch: 5, RR: []ipv6.Addr{ghost2}, Sig: sig, PK: pk, Rn: 8})
	// Not addressed to the receiver: admission drops it as not-for-me.
	answer := wire.Encode(&wire.Packet{Src: ghost, Dst: ghost2, TTL: 8,
		Msg: &wire.DNSAnswer{Name: "x", IP: ghost, Found: true, Sig: sig}})
	for _, f := range [][]byte{areq, rreq, adv, answer} {
		src.RawBroadcast(f)
	}
	tn.s.RunFor(time.Second)
	for _, c := range []string{"rx.AREQ", "rx.RREQ", "rx.AADV"} {
		if rx.Get(c) == 0 {
			t.Fatalf("%s = 0: the intact flood never reached the receiver", c)
		}
	}

	set := func(b []byte, off int, v ...byte) []byte {
		out := append([]byte(nil), b...)
		copy(out[off:], v)
		return out
	}
	// Offsets from each frame's tail: blob fields end with a u64 and a
	// second blob, the RR count precedes its addresses, the bool
	// precedes the signature blob.
	tailBlob := len(pk) + 2 + 8 + len(sig) + 2
	corrupt := [][]byte{
		set(areq, len(areq)-1-16, 0xff),           // route record count beyond the frame
		set(rreq, len(rreq)-tailBlob, 0xff, 0xff), // oversized blob length
		set(adv, len(adv)-tailBlob, 0xff, 0xff),
		set(answer, len(answer)-len(sig)-2-1, 2), // bool byte of 2
		set(areq, wire.TTLOffset+3, 0xee),        // unknown type byte
	}
	for _, f := range [][]byte{areq, rreq, adv, answer} {
		corrupt = append(corrupt, f[:len(f)-1], append(append([]byte(nil), f...), 0))
	}
	frames, malformed := rx.Get("rx.frames"), rx.Get("rx.malformed")
	for _, f := range corrupt {
		src.RawBroadcast(f)
	}
	tn.s.RunFor(time.Second)
	if got := rx.Get("rx.frames") - frames; got != 0 {
		t.Errorf("%v corrupt copies counted as rx.frames", got)
	}
	if got := rx.Get("rx.malformed") - malformed; got != float64(len(corrupt)) {
		t.Errorf("rx.malformed rose by %v, want %d", got, len(corrupt))
	}
}

func TestDiscoveryFailureReported(t *testing.T) {
	tn := chain(t, fastConfig(true), 2, nil)
	tn.bootstrap(t)
	ghost := ipv6.SiteLocal(0, 0xdeadbeef)
	tn.nodes[1].SendData(ghost, []byte("x"))
	tn.s.RunFor(10 * time.Second)
	m := tn.nodes[1].Metrics()
	if m.Get("discovery.failed") != 1 {
		t.Fatalf("discovery.failed = %v", m.Get("discovery.failed"))
	}
	if m.Get("data.no_route") != 1 {
		t.Fatalf("data.no_route = %v", m.Get("data.no_route"))
	}
}
