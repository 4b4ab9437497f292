// Package wire defines the protocol's over-the-air format: the control
// messages of the paper's Table 1 (AREQ, AREP, DREP, RREQ, RREP, CREP,
// RERR), the data/acknowledgement messages the credit mechanism relies on,
// and the DNS query/answer/update messages of Sections 3.1–3.2. It provides
// a compact deterministic binary codec and the canonical byte strings that
// get signed — with domain-separation tags so a signature for one message
// type can never be replayed as another.
//
// The receive side has three entry points. Decode parses a frame into a
// Packet. Scan validates a frame exactly as Decode does but reads only its
// Envelope, without allocating: the header, the source-route entries
// around the current hop and a flooded request's identity and route-record
// offsets. AppendSplice builds the frame a relay forwards from the
// received bytes and the Envelope, without decoding: a flooded request's
// canonical rebroadcast with the relay's route-record entry spliced in,
// or any frame with its TTL and hop index advanced. Its output is
// byte-identical to Encode of the decoded packet after the same edit.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sbr6/internal/ipv6"
)

// Codec limits. Routes are bounded by TTL (≤64 hops in practice), key and
// signature material by the suite; the caps exist to make decoding of
// hostile input safe.
const (
	maxRouteLen = 255
	maxBlobLen  = 4096
)

var (
	// ErrTruncated reports input shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrTrailing reports leftover bytes after a complete message.
	ErrTrailing = errors.New("wire: trailing bytes")
	// ErrBadField reports a field violating a codec limit.
	ErrBadField = errors.New("wire: invalid field")
)

// writer accumulates the encoding. In counting mode (count == true) it
// runs the identical field sequence — same bounds checks, same panics —
// but only tallies sizes into n, which is what makes EncodedSize exact
// without allocating or retaining an encoding.
type writer struct {
	buf   []byte
	count bool
	n     int
}

func (w *writer) u8(v uint8) {
	if w.count {
		w.n++
		return
	}
	w.buf = append(w.buf, v)
}

func (w *writer) u16(v uint16) {
	if w.count {
		w.n += 2
		return
	}
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

func (w *writer) u32(v uint32) {
	if w.count {
		w.n += 4
		return
	}
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

func (w *writer) u64(v uint64) {
	if w.count {
		w.n += 8
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) addr(a ipv6.Addr) {
	if w.count {
		w.n += len(a)
		return
	}
	w.buf = append(w.buf, a[:]...)
}

func (w *writer) blob(b []byte) {
	if len(b) > maxBlobLen {
		panic(fmt.Sprintf("wire: blob of %d bytes exceeds limit", len(b)))
	}
	w.u16(uint16(len(b)))
	if w.count {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

func (w *writer) str(s string) {
	if w.count {
		// Mirror blob without materializing []byte(s).
		if len(s) > maxBlobLen {
			panic(fmt.Sprintf("wire: blob of %d bytes exceeds limit", len(s)))
		}
		w.n += 2 + len(s)
		return
	}
	w.blob([]byte(s))
}

func (w *writer) route(rr []ipv6.Addr) {
	if len(rr) > maxRouteLen {
		panic(fmt.Sprintf("wire: route of %d hops exceeds limit", len(rr)))
	}
	w.u8(uint8(len(rr)))
	for _, a := range rr {
		w.addr(a)
	}
}

// hop writes one entry of an RREQ's secure route record.
func (w *writer) hop(h *HopAttestation) {
	w.addr(h.IP)
	w.blob(h.Sig)
	w.blob(h.PK)
	w.u64(h.Rn)
}

// reader decodes with sticky errors: after the first failure all further
// reads return zero values and the error is reported once at the end.
//
// In scan mode (scan == true) it runs the identical field walk — same
// bounds checks, same rejections — but materializes nothing: blobs,
// strings, routes and hop records come back empty, and only rec notes
// where the most recently walked route or hop record sits in buf. That is
// what lets Scan accept exactly the frames Decode accepts without
// allocating.
type reader struct {
	buf  []byte
	off  int
	err  error
	scan bool
	rec  record
	id   floodID
}

// record locates the most recently walked route or hop record in the
// buffer: its entry count, the offsets of its count byte (its first entry
// follows) and of its last entry's address, and the offset just past its
// last entry.
type record struct {
	n, at, last, end int
}

// floodID is the identity a flooded request is deduplicated by (and, for
// an RREQ, the destination it asks for), noted during its body walk
// together with its route record.
type floodID struct {
	sip, dip ipv6.Addr
	seq      uint32
	ch       uint64
	rr       record
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrBadField)
		return false
	}
}

func (r *reader) addr() ipv6.Addr {
	if b := r.take(len(ipv6.Addr{})); b != nil {
		return ipv6.Addr(b)
	}
	return ipv6.Addr{}
}

func (r *reader) blob() []byte {
	n := int(r.u16())
	if n > maxBlobLen {
		r.fail(ErrBadField)
		return nil
	}
	b := r.take(n)
	if b == nil || r.scan {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) str() string { return string(r.blob()) }

func (r *reader) route() []ipv6.Addr {
	at := r.off
	n := int(r.u8())
	size := len(ipv6.Addr{})
	r.rec = record{n: n, at: at, last: r.off + (n-1)*size, end: r.off + n*size}
	if n == 0 {
		return nil
	}
	if r.scan {
		r.take(n * size)
		return nil
	}
	rr := make([]ipv6.Addr, 0, n)
	for i := 0; i < n; i++ {
		if r.err != nil {
			return nil
		}
		rr = append(rr, r.addr())
	}
	return rr
}

// hops walks an RREQ's secure route record.
func (r *reader) hops() []HopAttestation {
	at := r.off
	n := int(r.u8())
	r.rec = record{n: n, at: at}
	var hh []HopAttestation
	for i := 0; i < n && r.err == nil; i++ {
		r.rec.last = r.off
		h := HopAttestation{IP: r.addr(), Sig: r.blob(), PK: r.blob(), Rn: r.u64()}
		if !r.scan {
			hh = append(hh, h)
		}
	}
	r.rec.end = r.off
	return hh
}

// addrAt reads the address at byte offset off of an already validated
// buffer.
func (r *reader) addrAt(off int) ipv6.Addr {
	return ipv6.Addr(r.buf[off:])
}

// flood notes a flooded request's identity together with the route
// record its body walk just passed. It assigns field by field: building a
// floodID value and copying it costs the scan measurably more.
func (r *reader) flood(sip, dip ipv6.Addr, seq uint32, ch uint64) {
	r.id.sip, r.id.dip, r.id.seq, r.id.ch, r.id.rr = sip, dip, seq, ch, r.rec
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return ErrTrailing
	}
	return nil
}
