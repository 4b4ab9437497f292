package wire

import (
	"fmt"

	"sbr6/internal/ipv6"
)

// DefaultTTL bounds flood diameter; 64 matches common IPv6 hop limits and
// exceeds any diameter our scenarios produce.
const DefaultTTL = 64

// TTLOffset is the byte offset of the hop limit in every frame, after the
// source and destination addresses: the one header byte each relay of a
// flood rewrites.
const TTLOffset = 2 * len(ipv6.Addr{})

// Packet is the network-layer envelope around a Message: source and
// destination addresses, a hop limit, and — for unicasts — the DSR source
// route being followed.
//
// SrcRoute lists the intermediate hops only (the paper's RR convention);
// the full path is Src, SrcRoute..., Dst. Hop counts how many forwarding
// steps have been taken: the next receiver is SrcRoute[Hop] while
// Hop < len(SrcRoute), then Dst.
type Packet struct {
	Src      ipv6.Addr
	Dst      ipv6.Addr // AllNodes for floods
	TTL      uint8
	Hop      uint8
	SrcRoute []ipv6.Addr
	Msg      Message
}

// Flood reports whether the packet is a network-wide broadcast.
func (p *Packet) Flood() bool { return p.Dst == ipv6.AllNodes }

// NextHop returns the address the packet should be handed to next, given
// the current Hop index. ok is false when the route is exhausted
// (the packet is at, or addressed to, its destination).
func (p *Packet) NextHop() (ipv6.Addr, bool) {
	if int(p.Hop) < len(p.SrcRoute) {
		return p.SrcRoute[p.Hop], true
	}
	if int(p.Hop) == len(p.SrcRoute) {
		return p.Dst, true
	}
	return ipv6.Addr{}, false
}

// encodeInto writes the packet's field sequence through w — the single
// definition of the frame layout shared by Encode, AppendEncode and the
// counting EncodedSize.
func encodeInto(w *writer, p *Packet) {
	if p.Msg == nil {
		panic("wire: Encode with nil message")
	}
	w.addr(p.Src)
	w.addr(p.Dst)
	w.u8(p.TTL)
	w.u8(p.Hop)
	w.route(p.SrcRoute)
	w.u8(uint8(p.Msg.Type()))
	p.Msg.encodeBody(w)
}

// Encode serializes the packet. It panics on nil Msg or oversized fields —
// both are programming errors on the sending side, never input errors.
func Encode(p *Packet) []byte {
	return AppendEncode(make([]byte, 0, 128), p)
}

// AppendEncode serializes the packet into dst (appending from its current
// length) and returns the extended slice — the pooled-buffer variant of
// Encode. With dst capacity of at least EncodedSize(p) free it performs no
// allocation; the transmit paths obtain exactly that from their medium's
// frame pool.
func AppendEncode(dst []byte, p *Packet) []byte {
	w := writer{buf: dst}
	encodeInto(&w, p)
	return w.buf
}

// header walks the fields every frame opens with, returning the type byte.
func (r *reader) header(p *Packet) Type {
	p.Src = r.addr()
	p.Dst = r.addr()
	p.TTL = r.u8()
	p.Hop = r.u8()
	p.SrcRoute = r.route()
	return Type(r.u8())
}

// Decode parses a frame previously produced by Encode. Malformed input
// yields an error, never a panic: frames may come from adversaries.
func Decode(b []byte) (*Packet, error) {
	r := &reader{buf: b}
	p := &Packet{}
	t := r.header(p)
	if r.err != nil {
		return nil, r.err
	}
	p.Msg = decodeBody(t, r)
	if err := r.done(); err != nil {
		return nil, err
	}
	return p, nil
}

// Envelope is what a receiver needs to decide whether to decode a frame,
// and what a relay needs to forward it without decoding: the packet
// header, the source-route entries around the current hop and, for the
// flooded requests (AREQ, RREQ, AuditAdv), the flood identity they are
// deduplicated by and where their route record sits in the frame.
type Envelope struct {
	Src, Dst ipv6.Addr
	TTL, Hop uint8
	Type     Type
	// RouteLen is len(SrcRoute). Next is SrcRoute[Hop] when
	// Hop < RouteLen; Prev is SrcRoute[Hop-1] when 0 < Hop <= RouteLen.
	RouteLen   int
	Next, Prev ipv6.Addr
	// SIP, Seq and Ch identify a flooded request (Ch is 0 for an RREQ);
	// DIP is an RREQ's destination. RecordLen is the length of its route
	// record (RR, or the RREQ's SRR) and Last the record's final address
	// when RecordLen > 0.
	SIP       ipv6.Addr
	DIP       ipv6.Addr
	Seq       uint32
	Ch        uint64
	RecordLen int
	Last      ipv6.Addr
	// RecordAt is the frame offset of the route record's count byte and
	// RecordEnd the offset just past its last entry: where AppendSplice
	// bumps the count and inserts a relay's entry. Both are 0 for frames
	// that are not flooded requests.
	RecordAt, RecordEnd int
}

// Scan validates a frame exactly as Decode does — it accepts and rejects
// the same inputs — but fills in only its Envelope, e, and allocates
// nothing. It runs Decode's own field walk in the reader's scan mode, so
// every message layout is still defined once. Receivers scan every frame
// and decode only those a handler will act on; e is filled in place
// because copying the envelope out by value is a measurable share of a
// scan. When Scan fails, e holds nothing of the frame.
func Scan(b []byte, e *Envelope) error {
	r := reader{buf: b, scan: true}
	var p Packet
	t := r.header(&p)
	route := r.rec
	if r.err == nil {
		decodeBody(t, &r)
	}
	*e = Envelope{}
	if err := r.done(); err != nil {
		return err
	}
	e.Src, e.Dst, e.TTL, e.Hop, e.Type, e.RouteLen = p.Src, p.Dst, p.TTL, p.Hop, t, route.n
	hop, size := int(p.Hop), len(ipv6.Addr{})
	if hop < route.n {
		e.Next = r.addrAt(route.at + 1 + hop*size)
	}
	if hop > 0 && hop <= route.n {
		e.Prev = r.addrAt(route.at + 1 + (hop-1)*size)
	}
	id := &r.id
	e.SIP, e.DIP, e.Seq, e.Ch = id.sip, id.dip, id.seq, id.ch
	e.RecordLen, e.RecordAt, e.RecordEnd = id.rr.n, id.rr.at, id.rr.end
	if id.rr.n > 0 {
		e.Last = r.addrAt(id.rr.last)
	}
	return nil
}

// Encoder amortizes the codec's scratch state across encodes. The writer
// escapes to the heap on every package-level Encode/AppendEncode call
// (the encodeBody interface call defeats escape analysis), so hot paths
// that encode per transmission keep an Encoder in their long-lived state
// — one heap allocation for its lifetime instead of two per packet.
// An Encoder is single-threaded, like everything else in the simulator.
type Encoder struct {
	w writer
}

// AppendEncode is AppendEncode over the encoder's reusable writer.
func (e *Encoder) AppendEncode(dst []byte, p *Packet) []byte {
	e.w = writer{buf: dst}
	encodeInto(&e.w, p)
	buf := e.w.buf
	e.w.buf = nil // never retain the caller's (possibly pooled) buffer
	return buf
}

// Size is EncodedSize over the encoder's reusable writer.
func (e *Encoder) Size(p *Packet) int {
	e.w = writer{count: true}
	encodeInto(&e.w, p)
	return e.w.n
}

// EncodedSize returns the wire size of the packet without encoding it:
// the writer runs the identical field walk in counting mode, so the
// result agrees with len(Encode(p)) byte-for-byte (the codec property
// test holds it there) at zero allocations. The transmit paths use it to
// size pooled frame buffers exactly; the overhead accounting of
// experiment T1/E1 uses it directly.
func EncodedSize(p *Packet) int {
	w := writer{count: true}
	encodeInto(&w, p)
	return w.n
}

// String summarizes the packet for transcripts.
func (p *Packet) String() string {
	return fmt.Sprintf("%s %s->%s ttl=%d hops=%d", p.Msg.Type(), p.Src, p.Dst, p.TTL, len(p.SrcRoute))
}

// --- Canonical signing strings ---
//
// Every signature in the protocol covers one of the byte strings below.
// Each begins with a distinct domain-separation tag so that a signature
// obtained for one purpose can never be replayed as a different message —
// the codified version of the paper's "the attackers have to know how to
// encrypt either the challenge or the sequence number" argument.

func sigBytes(tag byte, build func(w *writer)) []byte {
	w := &writer{buf: make([]byte, 0, 64)}
	w.u8(tag)
	build(w)
	return w.buf
}

// SigAREP is the owner's proof for an address objection: (SIP, ch).
func SigAREP(sip ipv6.Addr, ch uint64) []byte {
	return sigBytes(0x01, func(w *writer) { w.addr(sip); w.u64(ch) })
}

// SigDREP is the DNS server's proof for a name objection: (DN, ch).
func SigDREP(dn string, ch uint64) []byte {
	return sigBytes(0x02, func(w *writer) { w.str(dn); w.u64(ch) })
}

// SigRREQSource is the source's route-request attestation: (SIP, seq).
func SigRREQSource(sip ipv6.Addr, seq uint32) []byte {
	return sigBytes(0x03, func(w *writer) { w.addr(sip); w.u32(seq) })
}

// SigHop is an intermediate hop's attestation: (IIP, seq).
func SigHop(iip ipv6.Addr, seq uint32) []byte {
	return sigBytes(0x04, func(w *writer) { w.addr(iip); w.u32(seq) })
}

// SigRREP is the destination's route attestation: (SIP, seq, RR). The same
// string authenticates the cached half of a CREP.
func SigRREP(sip ipv6.Addr, seq uint32, rr []ipv6.Addr) []byte {
	return sigBytes(0x05, func(w *writer) { w.addr(sip); w.u32(seq); w.route(rr) })
}

// SigRERR is the relay's link-break attestation: (IIP, NIP).
func SigRERR(iip, nip ipv6.Addr) []byte {
	return sigBytes(0x06, func(w *writer) { w.addr(iip); w.addr(nip) })
}

// SigDNSAnswer authenticates a lookup answer: (name, IP, found, ch).
func SigDNSAnswer(name string, ip ipv6.Addr, found bool, ch uint64) []byte {
	return sigBytes(0x07, func(w *writer) { w.str(name); w.addr(ip); w.bool(found); w.u64(ch) })
}

// SigUpdateChal authenticates the DNS challenge: (name, ch).
func SigUpdateChal(name string, ch uint64) []byte {
	return sigBytes(0x08, func(w *writer) { w.str(name); w.u64(ch) })
}

// SigUpdate is the holder's address-change proof: (oldIP, newIP, ch).
func SigUpdate(oldIP, newIP ipv6.Addr, ch uint64) []byte {
	return sigBytes(0x09, func(w *writer) { w.addr(oldIP); w.addr(newIP); w.u64(ch) })
}

// SigUpdateResult authenticates the verdict: (name, ok, ch).
func SigUpdateResult(name string, ok bool, ch uint64) []byte {
	return sigBytes(0x0a, func(w *writer) { w.str(name); w.bool(ok); w.u64(ch) })
}

// SigAuditAdv is the owner's audit re-advertisement attestation:
// (SIP, seq, ch). The sweep round and challenge are covered so a captured
// advertisement cannot be replayed later with an inflated round counter to
// fake a live conflicting claimant.
func SigAuditAdv(sip ipv6.Addr, seq uint32, ch uint64) []byte {
	return sigBytes(0x0b, func(w *writer) { w.addr(sip); w.u32(seq); w.u64(ch) })
}

// SigAuditObj is the conflicting holder's audit objection proof: (SIP, ch).
// The tag differs from SigAREP so a DAD objection signature can never stand
// in for an audit objection or vice versa.
func SigAuditObj(sip ipv6.Addr, ch uint64) []byte {
	return sigBytes(0x0c, func(w *writer) { w.addr(sip); w.u64(ch) })
}
