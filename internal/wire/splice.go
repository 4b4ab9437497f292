package wire

import (
	"fmt"

	"sbr6/internal/ipv6"
)

// The relay splice. A relay forwards the bytes it received instead of
// re-encoding a decoded copy: it copies the frame and patches the few
// fields relaying changes, at the offsets Scan put in the Envelope.
// FuzzSpliceMatchesReencode holds every spliced frame equal to Encode of
// the decoded packet after the relay's edit, so a splice transmits
// exactly the bytes the re-encode did.

// hopOffset is the byte offset of the hop index, right after the TTL.
const hopOffset = TTLOffset + 1

// SplicedSize returns the length of the frame AppendSplice writes for the
// same arguments, so a relay can check out a pooled frame of exactly that
// size.
func SplicedSize(raw []byte, e *Envelope, entry *HopAttestation) int {
	if entry == nil {
		return len(raw)
	}
	w := writer{count: true}
	e.recordEntry(&w, entry)
	return len(raw) - e.RouteLen*len(ipv6.Addr{}) + w.n
}

// AppendSplice appends to dst the frame a relay transmits in place of the
// received frame raw, whose envelope e Scan returned, and returns the
// extended slice. raw is only read: one broadcast frame is shared by all
// its receivers.
//
// With a nil entry the frame moves on as it stands, TTL decremented and,
// while its source route has hops left (Hop < RouteLen), the hop index
// advanced: how a source-routed packet and a flood-routed DNS control
// message are relayed. With an entry, raw must be a flooded request
// (AREQ, AuditAdv or RREQ). It is rebroadcast under the canonical flood
// header — Src kept, Dst AllNodes, TTL decremented, Hop 0, no source
// route — with the route record's count bumped and the entry appended to
// the record: the whole hop attestation for an RREQ (the field walk
// RREQ's encoder uses), only its address for the others.
func AppendSplice(dst, raw []byte, e *Envelope, entry *HopAttestation) []byte {
	if entry == nil {
		start := len(dst)
		dst = append(dst, raw...)
		dst[start+TTLOffset]--
		if int(e.Hop) < e.RouteLen {
			dst[start+hopOffset]++
		}
		return dst
	}
	count := raw[e.RecordAt]
	if count == maxRouteLen {
		panic(fmt.Sprintf("wire: route record of %d entries exceeds limit", maxRouteLen+1))
	}
	size := len(ipv6.Addr{})
	body := hopOffset + 2 + e.RouteLen*size + 1 // past the hop byte, the route count, the route and the type
	dst = append(dst, raw[:size]...)
	dst = append(dst, ipv6.AllNodes[:]...)
	dst = append(dst, raw[TTLOffset]-1, 0, 0, byte(e.Type))
	dst = append(dst, raw[body:e.RecordAt]...)
	dst = append(dst, count+1)
	dst = append(dst, raw[e.RecordAt+1:e.RecordEnd]...)
	w := writer{buf: dst}
	e.recordEntry(&w, entry)
	return append(w.buf, raw[e.RecordEnd:]...)
}

// recordEntry writes a relay's entry in the layout of e's route record.
func (e *Envelope) recordEntry(w *writer, entry *HopAttestation) {
	switch e.Type {
	case TRREQ:
		w.hop(entry)
	case TAREQ, TAuditAdv:
		w.addr(entry.IP)
	default:
		panic(fmt.Sprintf("wire: a %s frame has no route record to extend", e.Type))
	}
}
