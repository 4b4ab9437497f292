package core

import (
	"testing"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// Adversarial probes of the verification memo: every sequence of honest
// and forged messages must produce exactly the verdicts the uncached
// verifier produces, no matter what the cache has seen first. The keys are
// digests of the full verified content, so these tests are the executable
// form of the security argument in internal/verifycache's package doc.

// newCachedVerifier builds a standalone configured node (cache on unless
// direct) plus honest identities, like newVerifier in verify_test.go but
// with an explicit cache configuration.
func newCachedVerifier(t *testing.T, direct bool) (*Node, []*identity.Identity) {
	t.Helper()
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig(), 0, nil)
	dnsIdent, err := identity.New(identity.SuiteEd25519, draw.New(1, draw.Key, 0), "dns")
	if err != nil {
		t.Fatal(err)
	}
	ident, err := identity.New(identity.SuiteEd25519, draw.New(2, draw.Key, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DirectVerify = direct
	n := New(NewRegion(s, medium), 0, ident, dnsIdent.Pub, cfg, draw.New(3, draw.Protocol, 0), nil)
	medium.AddNode(0, func(sim.Time) geom.Point { return geom.Point{} }, 0, n)
	n.StartConfigured()

	var ids []*identity.Identity
	for i := 0; i < 4; i++ {
		id, err := identity.New(identity.SuiteEd25519, draw.New(10+int64(i), draw.Key, 0), "")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return n, ids
}

func TestCacheHonestThenTamperedRejected(t *testing.T) {
	n, ids := newCachedVerifier(t, false)
	honest := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
	if err := n.verifySRR(honest); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	// Every component of the honest chain is now cached as valid. Each
	// tampered variant shares all but one field with cached content and
	// must still be rejected — a poisoned hit would mean a key collision.
	tampers := map[string]func(m *wire.RREQ){
		"flip source sig bit": func(m *wire.RREQ) { m.SrcSig[0] ^= 1 },
		"bump source rn":      func(m *wire.RREQ) { m.Srn++ },
		"swap source key":     func(m *wire.RREQ) { m.SPK = ids[3].Pub.Bytes() },
		"replay into new seq": func(m *wire.RREQ) { m.Seq++ },
		"flip hop sig bit":    func(m *wire.RREQ) { m.SRR[1].Sig[0] ^= 1 },
		"swap hop address":    func(m *wire.RREQ) { m.SRR[0].IP = ids[3].Addr },
		"strip hop key":       func(m *wire.RREQ) { m.SRR[0].PK = nil },
	}
	for name, tamper := range tampers {
		m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 7)
		tamper(m)
		if n.verifySRR(m) == nil {
			t.Errorf("%s: forged chain accepted after honest chain was cached", name)
		}
	}
	// And the honest original still verifies after all those negatives.
	if err := n.verifySRR(honest); err != nil {
		t.Fatalf("honest chain rejected after forgeries were cached: %v", err)
	}
}

func TestCacheForgedThenReplayedHonest(t *testing.T) {
	n, ids := newCachedVerifier(t, false)
	// The adversary gets there first: a forged chain is verified (and its
	// rejection cached) before the honest one ever arrives.
	forged := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)
	forged.SrcSig = append([]byte(nil), forged.SrcSig...)
	forged.SrcSig[10] ^= 0xff
	if n.verifySRR(forged) == nil {
		t.Fatal("forged chain accepted")
	}
	// The cached negative must not shadow the honest content.
	if err := n.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1]}, 3)); err != nil {
		t.Fatalf("honest chain rejected after forgery was cached: %v", err)
	}
	// Replaying the forgery keeps being rejected (now from cache).
	if n.verifySRR(forged) == nil {
		t.Fatal("replayed forgery accepted")
	}
	if hits := n.VerifyCacheStats().SigHits; hits == 0 {
		t.Fatal("replayed forgery did not hit the signature memo")
	}
}

// An attacker splices individually-valid cached components into a new
// chain: hop 2's (cached, valid) attestation signature presented under hop
// 1's identity. Component caching must not let the splice through.
func TestCacheCrossSpliceRejected(t *testing.T) {
	n, ids := newCachedVerifier(t, false)
	if err := n.verifySRR(honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 9)); err != nil {
		t.Fatalf("honest chain rejected: %v", err)
	}
	spliced := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 9)
	spliced.SRR[0].Sig = spliced.SRR[1].Sig // valid for ids[2], presented as ids[1]'s
	if n.verifySRR(spliced) == nil {
		t.Fatal("spliced chain accepted")
	}
}

// A chain walked twice counts the same logical verifications both times,
// or cached and uncached runs would diverge in Results; the second walk's
// signature checks all hit the memo.
func TestRepeatedChainAccounting(t *testing.T) {
	n, ids := newCachedVerifier(t, false)
	walk := func(m *wire.RREQ, wantOK bool) (float64, verifycache.Stats) {
		t.Helper()
		before := n.Metrics().Get("crypto.verify")
		if err := n.verifySRR(m); (err == nil) != wantOK {
			t.Fatalf("verifySRR = %v, want accepted=%v", err, wantOK)
		}
		return n.Metrics().Get("crypto.verify") - before, n.VerifyCacheStats()
	}
	m := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 11)
	first, st1 := walk(m, true)
	second, st2 := walk(m, true)
	if first != 3 || second != 3 { // source + two hops
		t.Fatalf("walks counted %v and %v verifications, want 3 each", first, second)
	}
	if st1.SigMisses != 3 || st2.SigMisses != 3 || st2.SigHits-st1.SigHits != 3 {
		t.Fatalf("stats %+v then %+v: want 3 primitive checks, then 3 hits and none more", st1, st2)
	}
	// A failing walk stops at the same check both times.
	bad := honestRREQ(ids[0], []*identity.Identity{ids[1], ids[2]}, 12)
	bad.SRR[1].Sig = nil
	if failFirst, _ := walk(bad, false); failFirst != 3 {
		t.Fatalf("failing walk counted %v verifications, want 3", failFirst)
	}
	if failSecond, _ := walk(bad, false); failSecond != 3 {
		t.Fatalf("repeated failing walk counted %v verifications, want 3", failSecond)
	}
}

// A direct verifier (DirectVerify) records nothing and changes nothing.
func TestDisabledCacheRecordsNothing(t *testing.T) {
	n, ids := newCachedVerifier(t, true)
	m := honestRREQ(ids[0], []*identity.Identity{ids[1]}, 5)
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	if err := n.verifySRR(m); err != nil {
		t.Fatal(err)
	}
	if got := n.VerifyCacheStats(); got != (verifycache.Stats{}) {
		t.Fatalf("disabled cache recorded traffic: %+v", got)
	}
}

// newSigner builds a standalone configured node of the given suite with
// the memo cache on.
func newSigner(t *testing.T, suite identity.Suite) *Node {
	t.Helper()
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig(), 0, nil)
	ident, err := identity.New(suite, draw.New(2, draw.Key, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Suite = suite
	n := New(NewRegion(s, medium), 0, ident, ident.Pub, cfg, draw.New(3, draw.Protocol, 0), nil)
	medium.AddNode(0, func(sim.Time) geom.Point { return geom.Point{} }, 0, n)
	n.StartConfigured()
	return n
}

// The signing memo returns exactly the bytes a direct Identity.Sign
// makes, for both suites. The messages outnumber the memo's slots, so
// some share a slot and evict each other; each is signed twice in a row
// (a hit) and again after all the others.
func TestSignMemoMatchesDirectSign(t *testing.T) {
	for _, suite := range []identity.Suite{identity.SuiteEd25519, identity.SuiteRSA1024} {
		t.Run(suite.String(), func(t *testing.T) {
			n := newSigner(t, suite)
			var msgs [][]byte
			for seq := uint32(1); seq <= 12; seq++ {
				msgs = append(msgs, wire.SigHop(n.Addr(), seq), wire.SigRREQSource(n.Addr(), seq))
			}
			check := func(msg []byte) {
				if got, want := n.sign(msg), n.ident.Sign(msg); string(got) != string(want) {
					t.Fatalf("memo signature of %x differs from a direct signature", msg)
				}
			}
			for _, msg := range msgs {
				check(msg)
				check(msg)
			}
			for _, msg := range msgs {
				check(msg)
			}
			st := n.VerifyCacheStats()
			if st.SignHits < uint64(len(msgs)) || st.SignMisses <= uint64(len(msgs)) {
				t.Fatalf("stats %+v: want a hit per message and, with slots shared, more than %d misses", st, len(msgs))
			}
			if got := n.Metrics().Get("crypto.sign"); got != float64(3*len(msgs)) {
				t.Fatalf("crypto.sign = %v, want %d logical signatures", got, 3*len(msgs))
			}
		})
	}
}

// A relay whose address changes (audit rekey, DNS rebind) attests the new
// address: the memo keys on the whole signed message, never on the
// sequence number alone. The relay changes address more times than the
// memo has slots, attesting the same sequence number each time, so some
// new address shares a slot with an earlier one.
func TestHopAttestationAfterAddressChange(t *testing.T) {
	n := newSigner(t, identity.SuiteEd25519)
	prev := n.hopAttestation(5)
	for i := 0; i < 32; i++ {
		n.ident.Regenerate(n.src)
		h := n.hopAttestation(5)
		if h.IP == prev.IP || h.IP != n.Addr() {
			t.Fatalf("rekey %d: attestation address %v, want the new address %v", i, h.IP, n.Addr())
		}
		if !n.ident.Pub.Verify(wire.SigHop(h.IP, 5), h.Sig) {
			t.Fatalf("rekey %d: attestation does not verify under the new address", i)
		}
		prev = h
	}
}

// A memoized signature is handed to every packet that repeats it, so no
// caller may modify one. Relays of a chain attest the same sequence
// numbers for sources at both ends; after the traffic, every signature
// the memo hands out again must still equal a direct signature.
func TestSharedSignaturesStayIntact(t *testing.T) {
	tn := chain(t, fastConfig(true), 4, nil)
	tn.bootstrap(t)
	if got := deliverData(tn, 1, 4, 3); got != 3 {
		t.Fatalf("delivered %d of 3 from node 1", got)
	}
	if got := deliverData(tn, 4, 1, 3); got != 3 {
		t.Fatalf("delivered %d of 3 from node 4", got)
	}
	for _, relay := range tn.nodes[2:4] {
		if relay.VerifyCacheStats().SignHits == 0 {
			t.Fatalf("relay %v never reused a signature", relay.Addr())
		}
		for seq := uint32(1); seq <= 3; seq++ {
			msg := wire.SigHop(relay.Addr(), seq)
			if string(relay.sign(msg)) != string(relay.ident.Sign(msg)) {
				t.Fatalf("relay %v: signature of seq %d was modified after it was handed out", relay.Addr(), seq)
			}
		}
	}
}
