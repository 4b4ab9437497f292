package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbr6/internal/identity"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// Property: a randomized secure route record verifies if and only if it
// was not tampered with — generalizing the hand-written cases in
// verify_test.go — and the cached and uncached verifiers always agree.
//
// The generator draws a chain of random length from a pool of honest
// identities, signs it correctly, then applies one randomly chosen
// mutation (or none). Verification must accept exactly the untampered
// chains.

// tamperOps enumerates the mutations; each returns false when it could
// not apply (e.g. no hops to tamper with), in which case the chain stays
// honest.
var tamperOps = []struct {
	name  string
	apply func(m *wire.RREQ, r *rand.Rand, ids []*identity.Identity) bool
}{
	{"flip source sig", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		if len(m.SrcSig) == 0 {
			return false
		}
		m.SrcSig[r.Intn(len(m.SrcSig))] ^= 1 << uint(r.Intn(8))
		return true
	}},
	{"bump source rn", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		m.Srn += 1 + uint64(r.Intn(1000))
		return true
	}},
	{"swap source key", func(m *wire.RREQ, r *rand.Rand, ids []*identity.Identity) bool {
		pk := ids[r.Intn(len(ids))].Pub.Bytes()
		if string(pk) == string(m.SPK) {
			return false
		}
		m.SPK = pk
		return true
	}},
	{"shift seq after signing", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		m.Seq += 1 + uint32(r.Intn(100))
		return true
	}},
	{"garbage source key", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		m.SPK = []byte{byte(r.Intn(256))}
		return true
	}},
	{"flip hop sig", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		if len(m.SRR) == 0 {
			return false
		}
		h := &m.SRR[r.Intn(len(m.SRR))]
		if len(h.Sig) == 0 {
			return false
		}
		h.Sig[r.Intn(len(h.Sig))] ^= 1 << uint(r.Intn(8))
		return true
	}},
	{"swap hop address", func(m *wire.RREQ, r *rand.Rand, ids []*identity.Identity) bool {
		if len(m.SRR) == 0 {
			return false
		}
		h := &m.SRR[r.Intn(len(m.SRR))]
		addr := ids[r.Intn(len(ids))].Addr
		if addr == h.IP {
			return false
		}
		h.IP = addr
		return true
	}},
	{"bump hop rn", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		if len(m.SRR) == 0 {
			return false
		}
		m.SRR[r.Intn(len(m.SRR))].Rn++
		return true
	}},
	{"strip hop key", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		if len(m.SRR) == 0 {
			return false
		}
		m.SRR[r.Intn(len(m.SRR))].PK = nil
		return true
	}},
	{"cross-splice hop sig", func(m *wire.RREQ, r *rand.Rand, _ []*identity.Identity) bool {
		if len(m.SRR) < 2 {
			return false
		}
		i := r.Intn(len(m.SRR))
		j := (i + 1 + r.Intn(len(m.SRR)-1)) % len(m.SRR)
		m.SRR[i].Sig = m.SRR[j].Sig
		return true
	}},
	{"forge hop with source key", func(m *wire.RREQ, r *rand.Rand, ids []*identity.Identity) bool {
		if len(m.SRR) == 0 {
			return false
		}
		h := &m.SRR[r.Intn(len(m.SRR))]
		if string(h.PK) == string(ids[0].Pub.Bytes()) {
			return false // the "forger" would be the legitimate signer
		}
		h.Sig = ids[0].Sign(wire.SigHop(h.IP, m.Seq))
		return true
	}},
}

func TestPropertySRRVerifiesIffUntampered(t *testing.T) {
	cached, pool := newCachedVerifier(t, false)
	// A small cache keeps evicting under the tamper mix, so verdicts are
	// also checked while the LRU churns.
	cached.vcache = verifycache.New(8)
	direct, _ := newCachedVerifier(t, true)
	r := rand.New(rand.NewSource(42))

	seq := uint32(0)
	prop := func(hopSel uint16, tamperSel uint8) bool {
		seq++
		src := pool[int(hopSel)%len(pool)]
		nHops := int(hopSel>>4) % 4
		var hops []*identity.Identity
		for i := 0; i < nHops; i++ {
			hops = append(hops, pool[(int(hopSel)+i+1)%len(pool)])
		}
		m := honestRREQ(src, hops, seq)

		tampered := false
		name := "none"
		// tamperSel == 0 keeps roughly 1 in 12 chains honest; everything
		// else picks one mutation (which may fail to apply on short
		// chains, leaving the chain honest).
		if tamperSel%12 != 0 {
			op := tamperOps[int(tamperSel)%len(tamperOps)]
			name = op.name
			tampered = op.apply(m, r, pool)
		}

		errCached := cached.verifySRR(m)
		errDirect := direct.verifySRR(m)
		if (errCached == nil) != (errDirect == nil) {
			t.Logf("tamper %q: cached verdict %v, direct verdict %v", name, errCached, errDirect)
			return false
		}
		// The second pass answers from the verdicts the first one cached.
		if errAgain := cached.verifySRR(m); (errAgain == nil) != (errCached == nil) {
			t.Logf("tamper %q: first cached verdict %v, repeat verdict %v", name, errCached, errAgain)
			return false
		}
		if accepted := errCached == nil; accepted == tampered {
			t.Logf("tamper %q (applied=%v): accepted=%v, err=%v", name, tampered, accepted, errCached)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if st := cached.VerifyCacheStats(); st.SigMisses == 0 || st.SigHits == 0 || st.Evictions == 0 {
		t.Fatalf("property run never filled, reused or evicted the cache: %+v", st)
	}
}
