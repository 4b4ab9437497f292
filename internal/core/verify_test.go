package core

import (
	"math/rand"
	"strings"
	"testing"

	"sbr6/internal/dnssrv"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// White-box tests of the Section 3.3 verification procedure: each check of
// verifySRR must individually reject a tampered route request.

// verifier builds a standalone configured node plus a set of honest
// identities to construct route records from.
func newVerifier(t *testing.T) (*Node, []*identity.Identity) {
	t.Helper()
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig())
	dnsIdent, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(1)), "dns")
	if err != nil {
		t.Fatal(err)
	}
	ident, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(2)), "")
	if err != nil {
		t.Fatal(err)
	}
	n := New(s, medium, 0, ident, dnsIdent.Pub, DefaultConfig(), rand.New(rand.NewSource(3)), nil)
	medium.AddNode(0, func(sim.Time) geom.Point { return geom.Point{} }, n)
	n.StartConfigured()
	n.AttachDNS(dnssrv.New(s, rand.New(rand.NewSource(4)), dnsIdent, dnssrv.DefaultConfig(), nil))

	var ids []*identity.Identity
	for i := 0; i < 4; i++ {
		id, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(10+int64(i))), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return n, ids
}

// honestRREQ builds a fully signed route request from src through hops.
func honestRREQ(src *identity.Identity, hops []*identity.Identity, seq uint32) *wire.RREQ {
	m := &wire.RREQ{
		SIP:    src.Addr,
		DIP:    src.Addr.WithInterfaceID(0x9999),
		Seq:    seq,
		SrcSig: src.Sign(wire.SigRREQSource(src.Addr, seq)),
		SPK:    src.Pub.Bytes(),
		Srn:    src.Rn,
	}
	for _, h := range hops {
		m.SRR = append(m.SRR, wire.HopAttestation{
			IP:  h.Addr,
			Sig: h.Sign(wire.SigHop(h.Addr, seq)),
			PK:  h.Pub.Bytes(),
			Rn:  h.Rn,
		})
	}
	return m
}

func TestVerifySRRAcceptsHonestRequest(t *testing.T) {
	n, ids := newVerifier(t)
	m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
	if err := n.verifySRR(m); err != nil {
		t.Fatalf("honest SRR rejected: %v", err)
	}
	// Zero hops is also valid (source is a neighbour).
	if err := n.verifySRR(honestRREQ(ids[0], nil, 8)); err != nil {
		t.Fatalf("0-hop SRR rejected: %v", err)
	}
}

func TestVerifySRRRejectsTamperedSource(t *testing.T) {
	n, ids := newVerifier(t)

	// Wrong source key (CGA mismatch).
	m := honestRREQ(ids[0], nil, 1)
	m.SPK = ids[1].Pub.Bytes()
	if n.verifySRR(m) == nil {
		t.Fatal("source with mismatched key accepted")
	}

	// Wrong modifier.
	m = honestRREQ(ids[0], nil, 2)
	m.Srn++
	if n.verifySRR(m) == nil {
		t.Fatal("source with mismatched modifier accepted")
	}

	// Signature over a different sequence number (replay into new flood).
	m = honestRREQ(ids[0], nil, 3)
	m.Seq = 4
	if n.verifySRR(m) == nil {
		t.Fatal("stale source signature accepted")
	}

	// Garbage key bytes.
	m = honestRREQ(ids[0], nil, 5)
	m.SPK = []byte("not a key")
	if n.verifySRR(m) == nil {
		t.Fatal("garbage source key accepted")
	}
}

func TestVerifySRRRejectsTamperedHop(t *testing.T) {
	n, ids := newVerifier(t)
	mk := func(seq uint32) *wire.RREQ {
		return honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, seq)
	}

	// A hop's address swapped for another (route falsification).
	m := mk(1)
	m.SRR[0].IP = ids[3].Addr
	if n.verifySRR(m) == nil {
		t.Fatal("swapped hop address accepted")
	}

	// A hop attestation copied from a different flood (stale seq).
	m = mk(2)
	m.SRR[1].Sig = ids[2].Sign(wire.SigHop(ids[2].Addr, 999))
	if n.verifySRR(m) == nil {
		t.Fatal("stale hop attestation accepted")
	}

	// A hop inserted without any key at all (baseline-style bare entry).
	m = mk(3)
	m.SRR = append(m.SRR, wire.HopAttestation{IP: ids[3].Addr})
	if n.verifySRR(m) == nil {
		t.Fatal("bare hop entry accepted by the secure verifier")
	}

	// An entire hop forged by the source (it cannot sign for ids[1]).
	m = mk(4)
	m.SRR[0].Sig = ids[0].Sign(wire.SigHop(ids[1].Addr, 4))
	if n.verifySRR(m) == nil {
		t.Fatal("hop signed by the wrong key accepted")
	}
}

// A rejected route record names the failing hop by its index in the
// record, so a log line says which relay's attestation was bad.
func TestVerifySRRNamesFailingHop(t *testing.T) {
	n, ids := newVerifier(t)
	tampers := map[string]func(h *wire.HopAttestation){
		"hop 1 signature":   func(h *wire.HopAttestation) { h.Sig = ids[0].Sign(wire.SigHop(h.IP, 5)) },
		"hop 1 CGA binding": func(h *wire.HopAttestation) { h.Rn++ },
	}
	for want, tamper := range tampers {
		m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2], ids[3]}, 5)
		tamper(&m.SRR[1])
		err := n.verifySRR(m)
		if err == nil || !strings.HasSuffix(err.Error(), ": "+want) {
			t.Errorf("tampered hop 1: error %v, want one ending in %q", err, want)
		}
	}
}

func TestVerifySRRRejectsRemovedHop(t *testing.T) {
	// Removing a hop does NOT invalidate other attestations (each covers
	// only itself + seq) — this matches the paper: the destination can
	// verify who is listed, not that nobody was dropped. What the check
	// DOES guarantee is that all listed identities are real. Dropping a
	// relay yields a route that simply fails at forwarding time.
	n, ids := newVerifier(t)
	m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 1)
	m.SRR = m.SRR[1:] // drop the first relay
	if err := n.verifySRR(m); err != nil {
		t.Fatalf("shortened-but-authentic SRR rejected: %v", err)
	}
}

func TestHopAttestationModes(t *testing.T) {
	n, _ := newVerifier(t)
	h := n.hopAttestation(42)
	if len(h.Sig) == 0 || len(h.PK) == 0 {
		t.Fatal("secure mode must sign hop attestations")
	}
	if h.IP != n.Addr() {
		t.Fatal("attestation for wrong address")
	}

	// Baseline node leaves crypto fields empty.
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig())
	ident, _ := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(5)), "")
	base := New(s, medium, 1, ident, nil, BaselineConfig(), rand.New(rand.NewSource(6)), nil)
	medium.AddNode(1, func(sim.Time) geom.Point { return geom.Point{} }, base)
	base.StartConfigured()
	hb := base.hopAttestation(42)
	if len(hb.Sig) != 0 || len(hb.PK) != 0 {
		t.Fatal("baseline mode must not sign")
	}
}

func TestCREPLoopGuards(t *testing.T) {
	a := func(i uint64) ipv6.Addr { return ipv6.SiteLocal(0, i) }
	holder := a(10)

	mkRREQ := func(sip, dip ipv6.Addr, hops ...ipv6.Addr) *wire.RREQ {
		m := &wire.RREQ{SIP: sip, DIP: dip}
		for _, h := range hops {
			m.SRR = append(m.SRR, wire.HopAttestation{IP: h})
		}
		return m
	}

	cases := []struct {
		name   string
		m      *wire.RREQ
		cached []ipv6.Addr
		loop   bool
	}{
		{"clean", mkRREQ(a(1), a(9), a(2)), []ipv6.Addr{a(3)}, false},
		{"querier on cached path", mkRREQ(a(1), a(9), a(2)), []ipv6.Addr{a(1)}, true},
		{"request hop on cached path", mkRREQ(a(1), a(9), a(2)), []ipv6.Addr{a(2)}, true},
		{"holder in request hops", mkRREQ(a(1), a(9), holder), nil, true},
		{"destination in cached relays", mkRREQ(a(1), a(9)), []ipv6.Addr{a(9)}, true},
		{"querier is destination", mkRREQ(a(1), a(1)), nil, true},
		{"duplicate within request", mkRREQ(a(1), a(9), a(2), a(2)), nil, true},
	}
	for _, tc := range cases {
		if got := crepWouldLoop(tc.m, holder, tc.cached); got != tc.loop {
			t.Errorf("%s: crepWouldLoop = %v, want %v", tc.name, got, tc.loop)
		}
	}

	if hasDuplicateHop(a(1), []ipv6.Addr{a(2), a(3)}, a(4)) {
		t.Error("clean path flagged as looping")
	}
	if !hasDuplicateHop(a(1), []ipv6.Addr{a(2), a(1)}, a(4)) {
		t.Error("source revisit not flagged")
	}
	if !hasDuplicateHop(a(1), []ipv6.Addr{a(2), a(4)}, a(4)) {
		t.Error("destination revisit not flagged")
	}
	if !hasDuplicateHop(a(1), []ipv6.Addr{a(2), a(2)}, a(4)) {
		t.Error("relay revisit not flagged")
	}
	if !hasDuplicateHop(a(1), nil, a(1)) {
		t.Error("src==dst not flagged")
	}
}

func TestVerifyCountsCryptoOps(t *testing.T) {
	n, ids := newVerifier(t)
	before := n.Metrics().Get("crypto.verify")
	m := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 6)
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	// Source + one hop = two signature verifications.
	if got := n.Metrics().Get("crypto.verify") - before; got != 2 {
		t.Fatalf("crypto.verify delta = %v, want 2", got)
	}
}

// Every rewritten CGA check site must reject a message whose modifier is
// off by one while everything else stays honest. No signature covers the
// modifier, so the bumped message still carries valid signatures and only
// the CGA clause can reject it; the unbumped message must be accepted,
// which proves each probe reaches that clause.
func TestCGASitesRejectBumpedModifier(t *testing.T) {
	// reply delivers a route reply for dst at a node with a pending
	// discovery of seq, and reports whether the reply was rejected and
	// whether a route to dst was cached.
	reply := func(n *Node, counter string, dst ipv6.Addr, seq uint32, handle func()) (rejected, accepted bool) {
		n.pending[dst] = &discovery{seq: seq}
		before := n.Metrics().Get(counter)
		handle()
		_, cached := n.RouteTo(dst)
		return n.Metrics().Get(counter) > before, cached
	}
	crep := func(t *testing.T, bumpSrn, bumpDrn uint64) (bool, bool) {
		n, ids := newVerifier(t)
		holder, dst := ids[1], ids[0]
		m := &wire.CREP{
			S2IP: n.Addr(), SIP: holder.Addr, DIP: dst.Addr, Seq2: 9, Seq: 3,
			Sig1: holder.Sign(wire.SigRREP(n.Addr(), 9, nil)),
			SPK:  holder.Pub.Bytes(), Srn: holder.Rn + bumpSrn,
			Sig2: dst.Sign(wire.SigRREP(holder.Addr, 3, nil)),
			DPK:  dst.Pub.Bytes(), Drn: dst.Rn + bumpDrn,
		}
		return reply(n, "crep.rejected", dst.Addr, 9, func() { n.handleCREP(&wire.Packet{}, m) })
	}
	cases := []struct {
		site string
		// run probes the site with the modifier bumped by bump, and
		// reports whether the message was rejected and whether it was
		// accepted.
		run func(t *testing.T, bump uint64) (rejected, accepted bool)
	}{
		{"handleRREP Drn", func(t *testing.T, bump uint64) (bool, bool) {
			n, ids := newVerifier(t)
			dst := ids[0]
			rr := []ipv6.Addr{ids[1].Addr}
			m := &wire.RREP{
				SIP: n.Addr(), DIP: dst.Addr, Seq: 5, RR: rr,
				Sig: dst.Sign(wire.SigRREP(n.Addr(), 5, rr)),
				DPK: dst.Pub.Bytes(), Drn: dst.Rn + bump,
			}
			return reply(n, "rrep.rejected", dst.Addr, 5, func() { n.handleRREP(&wire.Packet{}, m) })
		}},
		{"handleCREP fresh half Srn", func(t *testing.T, bump uint64) (bool, bool) {
			return crep(t, bump, 0)
		}},
		{"handleCREP cached half Drn", func(t *testing.T, bump uint64) (bool, bool) {
			return crep(t, 0, bump)
		}},
		{"dnssrv.verifyUpdate NewRn", func(t *testing.T, bump uint64) (bool, bool) {
			n, _ := newVerifier(t)
			rng := rand.New(rand.NewSource(8))
			host, err := identity.New(identity.SuiteEd25519, rng, "mobile")
			if err != nil {
				t.Fatal(err)
			}
			n.dns.Preload("mobile", host.Addr)
			oldIP, oldRn := host.Addr, host.Rn
			chal := n.dns.HandleUpdateReq(&wire.UpdateReq{Name: "mobile"})
			host.Regenerate(rng)
			upd := dnssrv.BuildUpdate(host, "mobile", oldIP, oldRn, chal.Ch)
			upd.NewRn += bump // the old binding stays valid
			res, checks := n.dns.HandleUpdateCounted(upd)
			return !res.OK && checks == 2, res.OK && checks == 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.site, func(t *testing.T) {
			if rejected, accepted := tc.run(t, 0); rejected || !accepted {
				t.Fatalf("honest message: rejected=%v accepted=%v, want it accepted", rejected, accepted)
			}
			if rejected, accepted := tc.run(t, 1); !rejected || accepted {
				t.Fatalf("modifier bumped by one: rejected=%v accepted=%v, want it rejected with no route or binding change", rejected, accepted)
			}
		})
	}
}
