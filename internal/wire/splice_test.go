package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"sbr6/internal/ipv6"
)

// The oracle AppendSplice is held to is the relay step it replaced:
// decode the frame, edit the packet, Encode the result.

// forwarded is a relayed source-routed packet or flood-routed DNS control
// message: the packet with its TTL decremented and, while the source route
// has hops left, its hop index advanced.
func forwarded(p *Packet) *Packet {
	fwd := *p
	fwd.TTL--
	if int(fwd.Hop) < len(fwd.SrcRoute) {
		fwd.Hop++
	}
	return &fwd
}

// rebroadcast is a relayed flooded request: the canonical flood header
// around the message with entry appended to its route record. It is nil
// for messages that carry no route record to extend.
func rebroadcast(p *Packet, entry HopAttestation) *Packet {
	out := &Packet{Src: p.Src, Dst: ipv6.AllNodes, TTL: p.TTL - 1}
	switch m := p.Msg.(type) {
	case *AREQ:
		fwd := *m
		fwd.RR = append(append([]ipv6.Addr(nil), m.RR...), entry.IP)
		out.Msg = &fwd
	case *AuditAdv:
		fwd := *m
		fwd.RR = append(append([]ipv6.Addr(nil), m.RR...), entry.IP)
		out.Msg = &fwd
	case *RREQ:
		fwd := *m
		fwd.SRR = append(append([]HopAttestation(nil), m.SRR...), entry)
		out.Msg = &fwd
	default:
		return nil
	}
	return out
}

// relayEntries are the record entries a relay splices in: a secure hop
// attestation and a baseline one (a bare address).
var relayEntries = []HopAttestation{
	{IP: addrD, Sig: bytes.Repeat([]byte{0x5a}, 64), PK: bytes.Repeat([]byte{0xa5}, 32), Rn: 0x0102030405060708},
	{IP: addrC},
}

// checkSplice holds AppendSplice to the re-encode oracle on b, for every
// relay shape that applies to it: the TTL/hop patch always, and the
// record extension for flooded requests with room left in the record. It
// also requires the received frame to come through unmodified.
func checkSplice(t *testing.T, b []byte) {
	t.Helper()
	var e Envelope
	if Scan(b, &e) != nil {
		return
	}
	pkt, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode rejected a frame Scan accepted: %v", err)
	}
	orig := append([]byte(nil), b...)
	spliceAgrees(t, b, &e, nil, forwarded(pkt))
	for i := range relayEntries {
		if want := rebroadcast(pkt, relayEntries[i]); want != nil && e.RecordLen < maxRouteLen {
			spliceAgrees(t, b, &e, &relayEntries[i], want)
		}
	}
	if !bytes.Equal(b, orig) {
		t.Fatalf("AppendSplice modified the received frame\n was: %x\n now: %x", orig, b)
	}
}

// spliceAgrees requires the spliced frame, appended after a dirty prefix,
// to equal Encode(want) and SplicedSize to predict its length.
func spliceAgrees(t *testing.T, raw []byte, e *Envelope, entry *HopAttestation, want *Packet) {
	t.Helper()
	enc := Encode(want)
	if n := SplicedSize(raw, e, entry); n != len(enc) {
		t.Fatalf("SplicedSize = %d, the re-encode is %d bytes (entry %v)", n, len(enc), entry != nil)
	}
	prefix := []byte{0xee, 0xee, 0xee}
	got := AppendSplice(append([]byte(nil), prefix...), raw, e, entry)
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("AppendSplice overwrote the bytes before dst's length")
	}
	if !bytes.Equal(got[len(prefix):], enc) {
		t.Fatalf("spliced frame differs from the re-encode (entry %v)\n  raw: %x\nsplice: %x\n  want: %x",
			entry != nil, raw, got[len(prefix):], enc)
	}
}

// relaySamples frames one message of every relay shape: the flooded
// requests (AREQ, AuditAdv, secure and baseline RREQ) under a mid-route
// unicast header a canonical rebroadcast must replace, a flood-routed
// DNS control message, and source-routed Data, Ack and RREP mid-route.
func relaySamples() map[string][]byte {
	route := []ipv6.Addr{addrB, addrC}
	midRoute := func(msg Message) []byte {
		return Encode(&Packet{Src: addrA, Dst: addrD, TTL: DefaultTTL, Hop: 1, SrcRoute: route, Msg: msg})
	}
	secureHop := HopAttestation{IP: addrB, Sig: bytes.Repeat([]byte{1}, 64), PK: bytes.Repeat([]byte{2}, 32), Rn: 5}
	return map[string][]byte{
		"AREQ": midRoute(&AREQ{SIP: addrA, Seq: 7, DN: "printer.local", Ch: 0xdeadbeef, RR: route}),
		"AADV": midRoute(&AuditAdv{SIP: addrA, Seq: 3, Ch: 0xfeed, RR: route,
			Sig: bytes.Repeat([]byte{3}, 64), PK: bytes.Repeat([]byte{4}, 32), Rn: 14}),
		"RREQ-secure": midRoute(&RREQ{SIP: addrA, DIP: addrD, Seq: 3, SRR: []HopAttestation{secureHop},
			SrcSig: bytes.Repeat([]byte{7}, 64), SPK: bytes.Repeat([]byte{8}, 32), Srn: 11}),
		"RREQ-baseline": midRoute(&RREQ{SIP: addrA, DIP: addrD, Seq: 4, SRR: []HopAttestation{{IP: addrB}, {IP: addrC}}}),
		"DNS-flood": Encode(&Packet{Src: addrA, Dst: ipv6.DNS1, TTL: 9,
			Msg: &AREP{SIP: addrB, RR: route, Sig: []byte{1, 2, 3}, PK: []byte{4, 5}, Rn: 99}}),
		"DATA": midRoute(&Data{FlowID: 1, Seq: 2, Payload: bytes.Repeat([]byte{0xab}, 64)}),
		"ACK":  midRoute(&Ack{FlowID: 1, Seq: 2}),
		"RREP": midRoute(&RREP{SIP: addrA, DIP: addrD, Seq: 3, RR: route, Sig: []byte{1}, DPK: []byte{2}, Drn: 13}),
	}
}

func TestSpliceMatchesReencode(t *testing.T) {
	for _, b := range relaySamples() {
		checkSplice(t, b)
	}
	for _, msg := range sampleMessages() {
		checkSplice(t, scanSample(msg))
		checkSplice(t, Encode(&Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 2, Msg: msg}))
	}
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		checkSplice(t, Encode(&Packet{Src: randAddr(r), Dst: randAddr(r), TTL: uint8(r.Intn(256)),
			Hop: uint8(r.Intn(12)), SrcRoute: randRoute(r, 10), Msg: randMessage(r)}))
	}
}

func TestSpliceAllocatesNothing(t *testing.T) {
	for name, b := range relaySamples() {
		var e Envelope
		if err := Scan(b, &e); err != nil {
			t.Fatal(err)
		}
		entry := &relayEntries[0]
		if e.RecordAt == 0 {
			entry = nil
		}
		dst := make([]byte, 0, SplicedSize(b, &e, entry))
		if n := testing.AllocsPerRun(100, func() { _ = AppendSplice(dst, b, &e, entry) }); n != 0 {
			t.Errorf("splicing a %s frame allocates %v times, want 0", name, n)
		}
	}
}

func TestSpliceRejectsFullRecord(t *testing.T) {
	full := make([]ipv6.Addr, maxRouteLen)
	b := Encode(&Packet{Src: addrA, Dst: ipv6.AllNodes, TTL: 9, Msg: &AREQ{SIP: addrA, Seq: 1, RR: full}})
	var e Envelope
	if err := Scan(b, &e); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("extending a 255-entry route record did not panic")
		}
	}()
	AppendSplice(nil, b, &e, &relayEntries[1])
}

// FuzzSpliceMatchesReencode holds the relay splice to the re-encode it
// replaced: for every frame Scan accepts, the spliced bytes equal Encode
// of the decoded packet after the relay's edit, for every relay shape.
// Seeded under testdata/fuzz/ with one frame per relay shape.
func FuzzSpliceMatchesReencode(f *testing.F) {
	for _, b := range relaySamples() {
		f.Add(b)
	}
	f.Fuzz(checkSplice)
}
