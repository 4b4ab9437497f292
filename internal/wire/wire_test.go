package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"sbr6/internal/ipv6"
)

var (
	addrA = ipv6.SiteLocal(0, 0x1111)
	addrB = ipv6.SiteLocal(0, 0x2222)
	addrC = ipv6.SiteLocal(0, 0x3333)
	addrD = ipv6.SiteLocal(0, 0x4444)
)

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Message {
	return []Message{
		&AREQ{SIP: addrA, Seq: 7, DN: "printer.local", Ch: 0xdeadbeef, RR: []ipv6.Addr{addrB, addrC}},
		&AREQ{SIP: addrA, Seq: 8}, // empty DN, empty RR
		&AREP{SIP: addrA, RR: []ipv6.Addr{addrB}, Sig: []byte{1, 2, 3}, PK: []byte{4, 5}, Rn: 99},
		&DREP{SIP: addrA, RR: []ipv6.Addr{addrC}, DN: "printer.local", Sig: []byte{9}},
		&RREQ{SIP: addrA, DIP: addrD, Seq: 3,
			SRR:    []HopAttestation{{IP: addrB, Sig: []byte{1}, PK: []byte{2}, Rn: 5}, {IP: addrC, Sig: []byte{3}, PK: []byte{4}, Rn: 6}},
			SrcSig: []byte{7, 7}, SPK: []byte{8, 8, 8}, Srn: 11},
		&RREQ{SIP: addrA, DIP: addrD, Seq: 4}, // baseline: all crypto fields empty
		&RREP{SIP: addrA, DIP: addrD, Seq: 3, RR: []ipv6.Addr{addrB, addrC}, Sig: []byte{1}, DPK: []byte{2}, Drn: 13},
		&CREP{S2IP: addrA, SIP: addrB, DIP: addrD, Seq2: 21, RRToS: []ipv6.Addr{addrC},
			Sig1: []byte{1}, SPK: []byte{2}, Srn: 3, Seq: 20, RRToD: []ipv6.Addr{addrB, addrC}, Sig2: []byte{4}, DPK: []byte{5}, Drn: 6},
		&RERR{IIP: addrB, NIP: addrC, Sig: []byte{1, 2}, IPK: []byte{3}, Irn: 17},
		&Data{FlowID: 1, Seq: 2, Payload: bytes.Repeat([]byte{0xab}, 64)},
		&Ack{FlowID: 1, Seq: 2},
		&DNSQuery{Name: "server.manet", Ch: 0x1234},
		&DNSAnswer{Name: "server.manet", IP: addrD, Found: true, Sig: []byte{5, 6}},
		&DNSAnswer{Name: "missing", Found: false, Sig: []byte{7}},
		&UpdateReq{Name: "server.manet"},
		&UpdateChal{Name: "server.manet", Ch: 42, Sig: []byte{8}},
		&Update{Name: "server.manet", OldIP: addrA, NewIP: addrB, Rn: 1, NewRn: 2, PK: []byte{9}, Sig: []byte{10}},
		&UpdateResult{Name: "server.manet", OK: true, Ch: 42, Sig: []byte{11}},
		&AuditAdv{SIP: addrA, Seq: 3, Ch: 0xfeed, RR: []ipv6.Addr{addrB, addrC}, Sig: []byte{12}, PK: []byte{13}, Rn: 14},
		&AuditObj{SIP: addrA, RR: []ipv6.Addr{addrB}, Ch: 0xfeed, Sig: []byte{15}, PK: []byte{16}, Rn: 17},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range sampleMessages() {
		msg := msg
		t.Run(msg.Type().String(), func(t *testing.T) {
			pkt := &Packet{Src: addrA, Dst: addrD, TTL: DefaultTTL, Hop: 1, SrcRoute: []ipv6.Addr{addrB, addrC}, Msg: msg}
			enc := Encode(pkt)
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(pkt, dec) {
				t.Fatalf("round-trip mismatch:\n  in:  %#v\n  out: %#v", pkt, dec)
			}
		})
	}
}

func TestRoundTripFloodPacket(t *testing.T) {
	pkt := &Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 8, Msg: &AREQ{SIP: addrA, Seq: 1, Ch: 2}}
	if !pkt.Flood() {
		t.Fatal("flood packet not detected")
	}
	dec, err := Decode(Encode(pkt))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Flood() || dec.TTL != 8 {
		t.Fatalf("flood round-trip broken: %+v", dec)
	}
}

func TestNextHop(t *testing.T) {
	pkt := &Packet{Src: addrA, Dst: addrD, SrcRoute: []ipv6.Addr{addrB, addrC}}
	for i, want := range []ipv6.Addr{addrB, addrC, addrD} {
		pkt.Hop = uint8(i)
		got, ok := pkt.NextHop()
		if !ok || got != want {
			t.Fatalf("hop %d: NextHop = %v,%v want %v", i, got, ok, want)
		}
	}
	pkt.Hop = 3
	if _, ok := pkt.NextHop(); ok {
		t.Fatal("NextHop past destination should fail")
	}
	// No intermediates: destination is the first hop.
	direct := &Packet{Src: addrA, Dst: addrB}
	if got, ok := direct.NextHop(); !ok || got != addrB {
		t.Fatalf("direct NextHop = %v,%v", got, ok)
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(&Packet{Src: addrA, Dst: addrB, TTL: 4, Msg: &Ack{FlowID: 1, Seq: 2}})

	if _, err := Decode(nil); err == nil {
		t.Error("nil input decoded")
	}
	if _, err := Decode(good[:10]); err == nil {
		t.Error("truncated header decoded")
	}
	if _, err := Decode(good[:len(good)-1]); err == nil {
		t.Error("truncated body decoded")
	}
	if _, err := Decode(append(append([]byte(nil), good...), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Unknown message type.
	bad := append([]byte(nil), good...)
	bad[16+16+1+1+1] = 0xee // type byte (after src+dst+ttl+hop+route count 0)
	if _, err := Decode(bad); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestDecodeHostileBlobLength(t *testing.T) {
	// Claim a blob longer than the frame: must error, not panic or hang.
	pkt := &Packet{Src: addrA, Dst: addrB, Msg: &AREP{SIP: addrA, Sig: []byte{1}, PK: []byte{2}, Rn: 3}}
	enc := Encode(pkt)
	// AREP body starts after header; find the sig length field by scanning
	// for the 0x0001 length of Sig. Corrupting any length field upward must
	// yield ErrTruncated or ErrBadField.
	for i := 34; i < len(enc)-1; i++ {
		mut := append([]byte(nil), enc...)
		mut[i] = 0xff
		if _, err := Decode(mut); err == nil {
			// Some mutations stay valid (e.g. Rn bytes); that is fine — we
			// only require no panic. Valid-but-different is acceptable.
			continue
		}
	}
}

func TestBoolStrictness(t *testing.T) {
	pkt := &Packet{Src: addrA, Dst: addrB, Msg: &DNSAnswer{Name: "x", Found: true, Sig: []byte{1}}}
	enc := Encode(pkt)
	// Find the bool byte: it follows name (2+1) and IP (16) in the body.
	// Header: 16+16+1+1+1 = 35, type byte at 35, body starts 36.
	boolOff := 36 + 2 + 1 + 16
	if enc[boolOff] != 1 {
		t.Fatalf("test offset wrong: enc[%d] = %d", boolOff, enc[boolOff])
	}
	enc[boolOff] = 2
	if _, err := Decode(enc); err == nil {
		t.Fatal("non-canonical bool accepted")
	}
}

func TestEncodePanicsOnNilMessage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Encode(&Packet{Src: addrA, Dst: addrB})
}

func TestEncodePanicsOnOversizedRoute(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	route := make([]ipv6.Addr, 300)
	Encode(&Packet{Src: addrA, Dst: addrB, SrcRoute: route, Msg: &Ack{}})
}

func TestSigBytesDomainSeparation(t *testing.T) {
	// The same logical content signed under different purposes must produce
	// different byte strings — otherwise a signature could be replayed
	// across message types.
	all := [][]byte{
		SigAREP(addrA, 5),
		SigRREQSource(addrA, 5),
		SigHop(addrA, 5),
		SigRERR(addrA, addrA),
		SigRREP(addrA, 5, nil),
		SigDREP("a", 5),
		SigUpdateChal("a", 5),
		SigDNSAnswer("a", addrA, true, 5),
		SigUpdate(addrA, addrA, 5),
		SigUpdateResult("a", true, 5),
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if bytes.Equal(all[i], all[j]) {
				t.Fatalf("sig strings %d and %d collide", i, j)
			}
		}
	}
}

func TestSigBytesDeterministic(t *testing.T) {
	a := SigRREP(addrA, 9, []ipv6.Addr{addrB, addrC})
	b := SigRREP(addrA, 9, []ipv6.Addr{addrB, addrC})
	if !bytes.Equal(a, b) {
		t.Fatal("sig bytes not deterministic")
	}
	c := SigRREP(addrA, 9, []ipv6.Addr{addrC, addrB})
	if bytes.Equal(a, c) {
		t.Fatal("route order must affect sig bytes")
	}
}

func TestSecureVsBaselineSizeGap(t *testing.T) {
	// T1 shape check: a secure RREQ with k hop attestations must exceed the
	// baseline RREQ by roughly k * (sig + pk + rn) bytes.
	sig := make([]byte, 64)
	pk := make([]byte, 32)
	mk := func(hops int, secure bool) int {
		m := &RREQ{SIP: addrA, DIP: addrB, Seq: 1}
		for i := 0; i < hops; i++ {
			h := HopAttestation{IP: addrC}
			if secure {
				h.Sig, h.PK, h.Rn = sig, pk, 42
			}
			m.SRR = append(m.SRR, h)
		}
		if secure {
			m.SrcSig, m.SPK, m.Srn = sig, pk, 42
		}
		return EncodedSize(&Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 64, Msg: m})
	}
	for hops := 0; hops <= 10; hops++ {
		gap := mk(hops, true) - mk(hops, false)
		wantMin := (hops + 1) * (64 + 32) // sigs and keys, ignoring rn shared by both
		if gap < wantMin {
			t.Fatalf("hops=%d: secure-baseline gap %d < %d", hops, gap, wantMin)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		TAREQ: "AREQ", TAREP: "AREP", TDREP: "DREP", TRREQ: "RREQ",
		TRREP: "RREP", TCREP: "CREP", TRERR: "RERR", TData: "DATA",
		TAck: "ACK", TDNSQuery: "DNSQ", TDNSAnswer: "DNSA",
		TUpdateReq: "UPDQ", TUpdateChal: "CHAL", TUpdate: "UPD", TUpdateResult: "UPDR",
		TAuditAdv: "AADV", TAuditObj: "AOBJ",
	}
	for ty, name := range want {
		if ty.String() != name {
			t.Errorf("Type(%d).String() = %q, want %q", ty, ty.String(), name)
		}
	}
	if Type(0).String() != "type(0)" {
		t.Error("unknown type string wrong")
	}
}

func TestPacketString(t *testing.T) {
	pkt := &Packet{Src: addrA, Dst: addrB, TTL: 64, SrcRoute: []ipv6.Addr{addrC}, Msg: &Ack{}}
	s := pkt.String()
	if s == "" || !bytes.Contains([]byte(s), []byte("ACK")) {
		t.Fatalf("String = %q", s)
	}
}

// Property: arbitrary AREQ fields round-trip.
func TestPropertyAREQRoundTrip(t *testing.T) {
	prop := func(sipIID uint64, seq uint32, dn string, ch uint64, hops uint8) bool {
		if len(dn) > 1000 {
			dn = dn[:1000]
		}
		m := &AREQ{SIP: ipv6.SiteLocal(0, sipIID), Seq: seq, DN: dn, Ch: ch}
		for i := 0; i < int(hops%16); i++ {
			m.RR = append(m.RR, ipv6.SiteLocal(0, uint64(i)))
		}
		pkt := &Packet{Src: m.SIP, Dst: ipv6.AllNodes, TTL: 32, Msg: m}
		dec, err := Decode(Encode(pkt))
		return err == nil && reflect.DeepEqual(pkt, dec)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: random byte strings never panic the decoder.
func TestPropertyDecodeNeverPanics(t *testing.T) {
	prop := func(b []byte) bool {
		_, _ = Decode(b) // errors fine, panics not
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: random mutations of a valid frame either decode to something or
// error out — never panic (fuzz-lite for hostile relays).
func TestPropertyMutationsNeverPanic(t *testing.T) {
	base := Encode(&Packet{Src: addrA, Dst: addrD, TTL: 16, SrcRoute: []ipv6.Addr{addrB},
		Msg: &RREQ{SIP: addrA, DIP: addrD, Seq: 1, SrcSig: []byte{1, 2}, SPK: []byte{3}, Srn: 4,
			SRR: []HopAttestation{{IP: addrB, Sig: []byte{5}, PK: []byte{6}, Rn: 7}}}})
	prop := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), base...)
		mut[int(pos)%len(mut)] = val
		_, _ = Decode(mut)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRREQ8Hops(b *testing.B) {
	m := &RREQ{SIP: addrA, DIP: addrB, Seq: 1, SrcSig: make([]byte, 64), SPK: make([]byte, 32), Srn: 9}
	for i := 0; i < 8; i++ {
		m.SRR = append(m.SRR, HopAttestation{IP: addrC, Sig: make([]byte, 64), PK: make([]byte, 32), Rn: 3})
	}
	pkt := &Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 64, Msg: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(pkt)
	}
}

func BenchmarkDecodeRREQ8Hops(b *testing.B) {
	m := &RREQ{SIP: addrA, DIP: addrB, Seq: 1, SrcSig: make([]byte, 64), SPK: make([]byte, 32), Srn: 9}
	for i := 0; i < 8; i++ {
		m.SRR = append(m.SRR, HopAttestation{IP: addrC, Sig: make([]byte, 64), PK: make([]byte, 32), Rn: 3})
	}
	enc := Encode(&Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 64, Msg: m})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
