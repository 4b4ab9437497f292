package wire

import (
	"math/rand"
	"testing"

	"sbr6/internal/ipv6"
)

// envelopeOf is the oracle Scan is held to: the Envelope read off a
// decoded packet.
func envelopeOf(p *Packet) Envelope {
	e := Envelope{Src: p.Src, Dst: p.Dst, TTL: p.TTL, Hop: p.Hop, Type: p.Msg.Type(), RouteLen: len(p.SrcRoute)}
	if h := int(p.Hop); h < len(p.SrcRoute) {
		e.Next = p.SrcRoute[h]
	}
	if h := int(p.Hop); h > 0 && h <= len(p.SrcRoute) {
		e.Prev = p.SrcRoute[h-1]
	}
	// The record offsets count the bytes in front of the record: the
	// header (addresses, TTL, hop, route, type) and the body fields the
	// message's layout puts before it.
	const addr = len(ipv6.Addr{})
	header := 2*addr + 3 + len(p.SrcRoute)*addr + 1
	var rr []ipv6.Addr
	switch m := p.Msg.(type) {
	case *AREQ:
		e.SIP, e.Seq, e.Ch, rr = m.SIP, m.Seq, m.Ch, m.RR
		e.RecordAt = header + addr + 4 + 2 + len(m.DN) + 8
		e.RecordEnd = e.RecordAt + 1 + len(rr)*addr
	case *AuditAdv:
		e.SIP, e.Seq, e.Ch, rr = m.SIP, m.Seq, m.Ch, m.RR
		e.RecordAt = header + addr + 4 + 8
		e.RecordEnd = e.RecordAt + 1 + len(rr)*addr
	case *RREQ:
		e.SIP, e.DIP, e.Seq, rr = m.SIP, m.DIP, m.Seq, m.Route()
		e.RecordAt = header + 2*addr + 4
		e.RecordEnd = e.RecordAt + 1
		for _, h := range m.SRR {
			e.RecordEnd += addr + 2 + len(h.Sig) + 2 + len(h.PK) + 8
		}
	}
	e.RecordLen = len(rr)
	if len(rr) > 0 {
		e.Last = rr[len(rr)-1]
	}
	return e
}

// checkScan asserts Scan and Decode agree on b: both accept or both
// reject, and an accepted frame's envelope matches the decoded packet.
func checkScan(t *testing.T, b []byte) {
	t.Helper()
	env := Envelope{Src: addrA, SIP: addrB, RecordAt: 9} // stale fields Scan must clear
	serr := Scan(b, &env)
	pkt, derr := Decode(b)
	if (serr == nil) != (derr == nil) {
		t.Fatalf("Scan err = %v, Decode err = %v on %x", serr, derr, b)
	}
	if derr != nil {
		if env != (Envelope{}) {
			t.Fatalf("a failed Scan left %+v in the envelope", env)
		}
		return
	}
	if want := envelopeOf(pkt); env != want {
		t.Fatalf("Scan envelope diverged from the decoded packet\n scan: %+v\n want: %+v", env, want)
	}
}

// scanSample frames msg at a mid-route hop.
func scanSample(msg Message) []byte {
	return Encode(&Packet{Src: addrA, Dst: addrD, TTL: DefaultTTL, Hop: 1,
		SrcRoute: []ipv6.Addr{addrB, addrC}, Msg: msg})
}

func TestScanMatchesDecodeOnEveryType(t *testing.T) {
	for _, msg := range sampleMessages() {
		checkScan(t, scanSample(msg))
	}
	// Hop positions around both ends of the source route.
	for hop := uint8(0); hop < 5; hop++ {
		checkScan(t, Encode(&Packet{Src: addrA, Dst: addrD, TTL: 3, Hop: hop,
			SrcRoute: []ipv6.Addr{addrB, addrC, addrD}, Msg: &Ack{FlowID: 1, Seq: 2}}))
	}
}

// Every single-byte mutation and every truncation of every sample frame:
// Scan must reject exactly what Decode rejects.
func TestScanRejectsWhatDecodeRejects(t *testing.T) {
	for _, msg := range sampleMessages() {
		b := scanSample(msg)
		for i := range b {
			checkScan(t, b[:i])
			for _, v := range []byte{0x00, 0x01, 0x02, 0x7f, 0xff} {
				mut := append([]byte(nil), b...)
				mut[i] = v
				checkScan(t, mut)
			}
		}
		checkScan(t, append(append([]byte(nil), b...), 0))
	}
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		pkt := &Packet{Src: randAddr(r), Dst: randAddr(r), TTL: uint8(r.Intn(256)), Hop: uint8(r.Intn(12)),
			SrcRoute: randRoute(r, 10), Msg: randMessage(r)}
		checkScan(t, Encode(pkt))
	}
}

func TestScanAllocatesNothing(t *testing.T) {
	for _, msg := range sampleMessages() {
		b := scanSample(msg)
		var e Envelope
		if err := Scan(b, &e); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = Scan(b, &e) }); n != 0 {
			t.Errorf("Scan of a %s frame allocates %v times, want 0", msg.Type(), n)
		}
	}
}

// FuzzScanMatchesDecode holds the receive path's decode skipping to its
// contract: Scan accepts exactly the inputs Decode accepts, and every
// envelope field equals the decoded packet's. Seeded under testdata/fuzz/
// with one frame of every message type.
func FuzzScanMatchesDecode(f *testing.F) {
	for _, msg := range sampleMessages() {
		f.Add(scanSample(msg))
	}
	f.Fuzz(checkScan)
}

func BenchmarkScanRREQ8Hops(b *testing.B) {
	m := &RREQ{SIP: addrA, DIP: addrB, Seq: 1, SrcSig: make([]byte, 64), SPK: make([]byte, 32), Srn: 9}
	for i := 0; i < 8; i++ {
		m.SRR = append(m.SRR, HopAttestation{IP: addrC, Sig: make([]byte, 64), PK: make([]byte, 32), Rn: 3})
	}
	enc := Encode(&Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 64, Msg: m})
	b.ReportAllocs()
	var e Envelope
	for i := 0; i < b.N; i++ {
		if err := Scan(enc, &e); err != nil {
			b.Fatal(err)
		}
	}
}
