package experiments

import (
	"fmt"
	"time"

	"sbr6/internal/cga"
	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// This file regenerates the paper's Table 1 (control message formats, here
// with measured wire sizes) and the crypto-operation costs behind Table 2's
// symbol definitions.

func init() {
	register("T1", "Table 1: control messages and wire sizes", runT1)
	register("T2", "Table 2 substrate: cryptographic operation costs", runT2)
}

// sigSizes returns representative signature/public-key wire sizes per suite.
func sigSizes(seed int64, suite identity.Suite) (sig, pk int) {
	id, err := identity.New(suite, draw.New(seed, draw.Key, 0), "")
	if err != nil {
		panic(err)
	}
	return len(id.Sign([]byte("probe"))), len(id.Pub.Bytes())
}

func runT1(opt Options) []*trace.Table {
	a := ipv6.SiteLocal(0, 0xaaaa)
	b := ipv6.SiteLocal(0, 0xbbbb)

	size := func(msg wire.Message, flood bool) int {
		dst := b
		if flood {
			dst = ipv6.AllNodes
		}
		return wire.EncodedSize(&wire.Packet{Src: a, Dst: dst, TTL: 64, Msg: msg})
	}

	suites := []identity.Suite{identity.SuiteEd25519, identity.SuiteRSA1024}
	out := []*trace.Table{}

	msgTable := trace.NewTable("T1a: Table 1 messages — function, parameters, wire size (bytes)",
		"type", "function", "parameters (paper)", "baseline", "ed25519", "rsa1024")
	type row struct {
		name, fn, params string
		build            func(sig, pk []byte, rn uint64) (wire.Message, bool)
	}
	hops := 3 // representative route record length
	mkHops := func(sig, pk []byte, rn uint64) []wire.HopAttestation {
		out := make([]wire.HopAttestation, hops)
		for i := range out {
			out[i] = wire.HopAttestation{IP: a, Sig: sig, PK: pk, Rn: rn}
		}
		return out
	}
	rr := make([]ipv6.Addr, hops)
	rows := []row{
		{"AREQ", "Address REQuest", "(SIP, seq, DN, ch, RR)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.AREQ{SIP: a, Seq: 1, DN: "host.manet", Ch: 2, RR: rr}, true
		}},
		{"AREP", "Address REPly", "(SIP, RR, [SIP,ch]RSK, RPK, Rrn)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.AREP{SIP: a, RR: rr, Sig: sig, PK: pk, Rn: rn}, false
		}},
		{"DREP", "DNS server REPly", "(SIP, RR, [DN,ch]NSK)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.DREP{SIP: a, RR: rr, DN: "host.manet", Sig: sig}, false
		}},
		{"RREQ", "Route REQuest", "(SIP, DIP, seq, SRR, [SIP,seq]SSK, SPK, Srn)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.RREQ{SIP: a, DIP: b, Seq: 3, SRR: mkHops(sig, pk, rn), SrcSig: sig, SPK: pk, Srn: rn}, true
		}},
		{"RREP", "Route REPly", "(SIP, DIP, [SIP,seq,RR]DSK, DPK, Drn)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.RREP{SIP: a, DIP: b, Seq: 3, RR: rr, Sig: sig, DPK: pk, Drn: rn}, false
		}},
		{"CREP", "Cached route REPly", "(S'IP, SIP, DIP, RR, sigs, keys, rns)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.CREP{S2IP: a, SIP: b, DIP: a, Seq2: 4, RRToS: rr, Sig1: sig, SPK: pk, Srn: rn,
				Seq: 3, RRToD: rr, Sig2: sig, DPK: pk, Drn: rn}, false
		}},
		{"RERR", "Route ERRor", "(IIP, I'IP, [IIP,I'IP]ISK, IPK, Irn)", func(sig, pk []byte, rn uint64) (wire.Message, bool) {
			return &wire.RERR{IIP: a, NIP: b, Sig: sig, IPK: pk, Irn: rn}, false
		}},
	}
	for _, r := range rows {
		cells := []string{r.name, r.fn, r.params}
		base, flood := r.build(nil, nil, 0)
		cells = append(cells, fmt.Sprint(size(base, flood)))
		for _, suite := range suites {
			sigN, pkN := sigSizes(opt.Seed, suite)
			msg, flood := r.build(make([]byte, sigN), make([]byte, pkN), 7)
			cells = append(cells, fmt.Sprint(size(msg, flood)))
		}
		msgTable.Add(cells...)
	}
	out = append(out, msgTable)

	// Per-hop growth of the secure RREQ: the protocol's dominant overhead.
	growth := trace.NewTable("T1b: RREQ size vs accumulated hops (bytes)",
		"hops", "baseline", "ed25519", "rsa1024")
	maxHops := 8
	if opt.Quick {
		maxHops = 4
	}
	for h := 0; h <= maxHops; h++ {
		mk := func(sigN, pkN int) int {
			m := &wire.RREQ{SIP: a, DIP: b, Seq: 1}
			if sigN > 0 {
				m.SrcSig, m.SPK, m.Srn = make([]byte, sigN), make([]byte, pkN), 7
			}
			for i := 0; i < h; i++ {
				ha := wire.HopAttestation{IP: a}
				if sigN > 0 {
					ha.Sig, ha.PK, ha.Rn = make([]byte, sigN), make([]byte, pkN), 7
				}
				m.SRR = append(m.SRR, ha)
			}
			return size(m, true)
		}
		edSig, edPK := sigSizes(opt.Seed, identity.SuiteEd25519)
		rsaSig, rsaPK := sigSizes(opt.Seed, identity.SuiteRSA1024)
		growth.Addf(h, mk(0, 0), mk(edSig, edPK), mk(rsaSig, rsaPK))
	}
	out = append(out, growth)
	return out
}

func runT2(opt Options) []*trace.Table {
	iters := 200
	keygenIters := 10
	if opt.Quick {
		iters, keygenIters = 50, 3
	}

	t := trace.NewTable("T2: cryptographic operation costs (wall clock)",
		"suite", "op", "iters", "us/op", "bytes").WallClock(3)

	for _, suite := range []identity.Suite{identity.SuiteEd25519, identity.SuiteRSA1024} {
		keys := draw.New(opt.Seed, draw.Key, 0)

		start := time.Now()
		var id *identity.Identity
		for i := 0; i < keygenIters; i++ {
			var err error
			id, err = identity.New(suite, keys, "")
			if err != nil {
				panic(err)
			}
		}
		t.Add(suite.String(), "keygen+CGA", fmt.Sprint(keygenIters),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/float64(keygenIters)),
			fmt.Sprint(len(id.Pub.Bytes())))

		msg := wire.SigRREQSource(id.Addr, 42)
		start = time.Now()
		var sig []byte
		for i := 0; i < iters; i++ {
			sig = id.Sign(msg)
		}
		t.Add(suite.String(), "sign", fmt.Sprint(iters),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/float64(iters)),
			fmt.Sprint(len(sig)))

		start = time.Now()
		for i := 0; i < iters; i++ {
			if !id.Pub.Verify(msg, sig) {
				panic("verify failed")
			}
		}
		t.Add(suite.String(), "verify", fmt.Sprint(iters),
			fmt.Sprintf("%.1f", float64(time.Since(start).Microseconds())/float64(iters)), "-")

		start = time.Now()
		for i := 0; i < iters; i++ {
			cga.InterfaceID(id.Pub.Bytes(), uint64(i))
		}
		t.Add(suite.String(), "H(PK,rn)", fmt.Sprint(iters),
			fmt.Sprintf("%.2f", float64(time.Since(start).Microseconds())/float64(iters)), "8")
	}

	// What a destination pays to verify a k-hop secure route record.
	k := trace.NewTable("T2b: destination verification cost vs route length",
		"hops", "verifies", "ed25519 us", "rsa1024 us").WallClock(2, 3)
	edID, _ := identity.New(identity.SuiteEd25519, draw.New(opt.Seed, draw.Key, 1), "")
	rsaID, _ := identity.New(identity.SuiteRSA1024, draw.New(opt.Seed, draw.Key, 2), "")
	msg := wire.SigHop(edID.Addr, 1)
	edSig := edID.Sign(msg)
	rsaSig := rsaID.Sign(msg)
	reps := 50
	if opt.Quick {
		reps = 10
	}
	for _, hops := range []int{1, 2, 4, 8} {
		verifies := hops + 1 // source + each hop
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < verifies; i++ {
				edID.Pub.Verify(msg, edSig)
			}
		}
		ed := float64(time.Since(start).Microseconds()) / float64(reps)
		start = time.Now()
		for r := 0; r < reps; r++ {
			for i := 0; i < verifies; i++ {
				rsaID.Pub.Verify(msg, rsaSig)
			}
		}
		rsa := float64(time.Since(start).Microseconds()) / float64(reps)
		k.Addf(hops, verifies, ed, rsa)
	}
	return []*trace.Table{t, k}
}
