package core

import (
	"sbr6/internal/cga"
	"sbr6/internal/dsr"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/wire"
)

// This file implements the data plane and secure route maintenance
// (Section 3.4): source-routed data with end-to-end acknowledgements that
// feed the credit mechanism, signed RERRs on link breaks, RERR-spammer
// tracking, and the black-hole probing that walks a failing route to locate
// the silent dropper.

// SendData routes payload to dst, discovering a route first if needed. It
// returns the (flow, seq) pair identifying the packet in acknowledgements
// and metrics.
func (n *Node) SendData(dst ipv6.Addr, payload []byte) (flow, seq uint32) {
	n.nextFlow++
	return n.SendFlow(dst, n.nextFlow, payload)
}

// SendFlow is SendData under a caller-chosen flow id, letting traffic
// generators keep per-flow sequence spaces.
func (n *Node) SendFlow(dst ipv6.Addr, flow uint32, payload []byte) (uint32, uint32) {
	if n.dead {
		return 0, 0
	}
	n.dataSeq++
	seq := n.dataSeq
	n.met.Add1("data.sent")
	if n.ownsAddr(dst) {
		// Loopback: no discovery, no radio.
		n.met.Add1("data.delivered")
		if n.OnData != nil {
			n.OnData(n.ident.Addr, &wire.Data{FlowID: flow, Seq: seq, Payload: payload})
		}
		return flow, seq
	}
	n.needRoute(dst, func(route dsr.Route, ok bool) {
		if !ok {
			n.met.Add1("data.no_route")
			return
		}
		n.transmitData(dst, route.Relays, flow, seq, payload)
	})
	return flow, seq
}

func (n *Node) transmitData(dst ipv6.Addr, relays []ipv6.Addr, flow, seq uint32, payload []byte) {
	pkt := &wire.Packet{
		Src: n.ident.Addr, Dst: dst, TTL: n.cfg.TTL,
		SrcRoute: relays,
		Msg:      &wire.Data{FlowID: flow, Seq: seq, Payload: payload},
	}
	key := ackKey{flow, seq}
	sd := &sentData{dst: dst, relays: append([]ipv6.Addr(nil), relays...)}
	sd.timer = n.sim.After(n.cfg.AckTimeout, func() { n.ackTimeout(key) })
	n.outstanding[key] = sd

	n.sendSourceRouted(pkt, func(next ipv6.Addr) {
		// First-hop failure: we are the detecting node.
		n.met.Add1("data.firsthop_fail")
		n.routes.InvalidateLink(n.ident.Addr, next)
	})
}

func (n *Node) handleData(pkt *wire.Packet, m *wire.Data) {
	n.met.Add1("data.delivered")
	if n.OnData != nil {
		n.OnData(pkt.Src, m)
	}
	// End-to-end acknowledgement back along the reverse route; each relay
	// on the acknowledged path will earn a credit at the source.
	ack := &wire.Ack{FlowID: m.FlowID, Seq: m.Seq}
	n.met.Add1("ack.sent")
	n.SendAlong(reverse(pkt.SrcRoute), pkt.Src, ack)
}

func (n *Node) handleAck(pkt *wire.Packet, m *wire.Ack) {
	key := ackKey{m.FlowID, m.Seq}
	sd, ok := n.outstanding[key]
	if !ok {
		n.met.Add1("ack.unsolicited")
		return
	}
	delete(n.outstanding, key)
	sd.timer.Cancel()
	n.met.Add1("ack.rx")
	n.lossStreak[sd.dst] = 0
	if n.cfg.UseCredits {
		n.credits.Reward(sd.relays)
	}
	// A probe packet's ack marks its own probe's target as answered; the
	// sentData carries the link because probe flow ids are not unique
	// across probes.
	if sd.probe != nil {
		sd.probe.acked[sd.probeIdx] = true
	}
}

func (n *Node) ackTimeout(key ackKey) {
	sd, ok := n.outstanding[key]
	if !ok {
		return
	}
	delete(n.outstanding, key)
	n.met.Add1("data.ack_timeout")
	n.lossStreak[sd.dst]++
	if n.cfg.ProbeOnLoss && n.cfg.UseCredits &&
		n.lossStreak[sd.dst] >= n.cfg.LossStreak && len(sd.relays) > 0 {
		n.startProbe(sd.dst, sd.relays)
	}
}

// --- Black-hole probing (Section 3.4) ---
//
// "Since hosts can not hide their identities in our protocol, the source
// host can traverse the route and test the integrality of each host."
// A probe packet is addressed to each relay in turn; the first relay whose
// probe goes unacknowledged brackets the dropper: either it refused to
// answer or its predecessor refused to forward. Both endpoints of the
// broken segment are penalized; an honest neighbour of a black hole
// recovers its credit through later rewards, the black hole does not.

const probeFlowBase = 0xffff0000

func (n *Node) startProbe(dst ipv6.Addr, relays []ipv6.Addr) {
	if _, busy := n.probes[dst]; busy {
		return
	}
	// One probe per relay prefix, plus a final probe to the destination
	// over the full route: a black hole that answers probes addressed to
	// itself but drops everything it should forward fails exactly the
	// probe after its own.
	targets := append(append([]ipv6.Addr(nil), relays...), dst)
	pr := &probeState{
		relays: append([]ipv6.Addr(nil), relays...),
		acked:  make([]bool, len(targets)),
	}
	n.probes[dst] = pr
	n.met.Add1("probe.started")
	for i, target := range targets {
		flow := probeFlowBase + uint32(len(n.probes))<<8 + uint32(i)
		n.dataSeq++
		seq := n.dataSeq
		key := ackKey{flow, seq}
		sd := &sentData{dst: target, relays: relays[:i], probe: pr, probeIdx: i}
		sd.timer = n.sim.After(n.cfg.AckTimeout, func() { n.ackTimeout(key) })
		n.outstanding[key] = sd
		pkt := &wire.Packet{
			Src: n.ident.Addr, Dst: target, TTL: n.cfg.TTL,
			SrcRoute: append([]ipv6.Addr(nil), relays[:i]...),
			Msg:      &wire.Data{FlowID: flow, Seq: seq},
		}
		n.sendSourceRouted(pkt, nil)
	}
	n.sim.After(2*n.cfg.AckTimeout, func() { n.finishProbe(dst) })
}

func (n *Node) finishProbe(dst ipv6.Addr) {
	pr, ok := n.probes[dst]
	if !ok {
		return
	}
	delete(n.probes, dst)
	n.lossStreak[dst] = 0

	firstFail := -1
	for i, acked := range pr.acked {
		if !acked {
			firstFail = i
			break
		}
	}
	switch {
	case firstFail < 0:
		// Everything answered, including the destination: the earlier
		// losses were transient; nothing to pin.
		n.met.Add1("probe.inconclusive")
	case firstFail == len(pr.relays):
		// Relays all answered but the destination probe died: the last
		// relay accepted traffic and dropped what it had to forward.
		n.met.Add1("probe.concluded")
		n.condemn(pr.relays[len(pr.relays)-1])
	default:
		// The broken segment is (firstFail-1, firstFail): one of the two
		// endpoints is misbehaving (the paper's own ambiguity); both are
		// penalized, and honest neighbours re-earn credit through rewards.
		n.met.Add1("probe.concluded")
		n.condemn(pr.relays[firstFail])
		if firstFail > 0 {
			n.condemn(pr.relays[firstFail-1])
		}
	}
}

// condemn applies the large credit penalty and purges routes through the
// host.
func (n *Node) condemn(h ipv6.Addr) {
	n.credits.Punish(h)
	n.routes.InvalidateHost(h)
	n.met.Add1("credit.punished")
}

// --- Forwarding and route errors ---

func (n *Node) forwardUnicast(pkt *wire.Packet) {
	if n.Behavior != nil && n.Behavior.DropForward(n, pkt) {
		n.met.Add1("fwd.dropped.behavior")
		return
	}
	if pkt.TTL <= 1 {
		n.met.Add1("fwd.ttl_expired")
		return
	}
	fwd := *pkt
	fwd.TTL--
	fwd.Hop++
	n.met.Add1("fwd.relayed")
	n.sendSourceRouted(&fwd, func(next ipv6.Addr) {
		n.met.Add1("fwd.linkfail")
		n.routes.InvalidateLink(n.ident.Addr, next)
		if _, isData := pkt.Msg.(*wire.Data); isData {
			n.reportBrokenLink(pkt, next)
			n.trySalvage(pkt)
		}
	})
}

// trySalvage re-routes a data packet whose next link just broke over this
// relay's own cached route to the destination (DSR packet salvaging). The
// source still receives the RERR; salvaging only rescues the in-flight
// packet. The rebuilt source route keeps the already-travelled prefix so
// the end-to-end acknowledgement can retrace it.
func (n *Node) trySalvage(pkt *wire.Packet) bool {
	if !n.cfg.Salvage {
		return false
	}
	data, ok := pkt.Msg.(*wire.Data)
	if !ok || data.Salvage >= n.cfg.MaxSalvage {
		return false
	}
	alt, ok := n.routes.Best(pkt.Dst, n.sim.Now(), n.routeScore())
	if !ok {
		return false
	}
	// Prefix travelled so far, including this relay (pkt.Hop indexes us).
	myIdx := int(pkt.Hop)
	if myIdx >= len(pkt.SrcRoute) || pkt.SrcRoute[myIdx] != n.ident.Addr {
		return false
	}
	route := append([]ipv6.Addr(nil), pkt.SrcRoute[:myIdx+1]...)
	// The alternate route must not revisit hops already on the path
	// (loop guard); the salvage counter bounds the overall process.
	seen := map[ipv6.Addr]bool{pkt.Src: true, pkt.Dst: true}
	for _, h := range route {
		seen[h] = true
	}
	for _, h := range alt.Relays {
		if seen[h] {
			return false
		}
	}
	route = append(route, alt.Relays...)

	msg := *data
	msg.Salvage++
	sal := &wire.Packet{
		Src: pkt.Src, Dst: pkt.Dst, TTL: pkt.TTL - 1,
		Hop: uint8(myIdx + 1), SrcRoute: route, Msg: &msg,
	}
	n.met.Add1("fwd.salvaged")
	n.sendSourceRouted(sal, nil)
	return true
}

// reportBrokenLink sends a (signed) RERR back to the packet's source: this
// node observed that its next hop is unreachable.
func (n *Node) reportBrokenLink(orig *wire.Packet, next ipv6.Addr) {
	rerr := &wire.RERR{IIP: n.ident.Addr, NIP: next}
	if n.cfg.Secure {
		rerr.Sig = n.sign(wire.SigRERR(n.ident.Addr, next))
		rerr.IPK = n.ident.Pub.Bytes()
		rerr.Irn = n.ident.Rn
	}
	// Reverse the prefix of the original source route up to this node.
	var prefix []ipv6.Addr
	for i := 0; i < int(orig.Hop) && i < len(orig.SrcRoute); i++ {
		if orig.SrcRoute[i] == n.ident.Addr {
			break
		}
		prefix = append(prefix, orig.SrcRoute[i])
	}
	n.met.Add1("rerr.sent")
	n.SendAlong(reverse(prefix), orig.Src, rerr)
}

func (n *Node) handleRERR(pkt *wire.Packet, m *wire.RERR) {
	n.met.Add1("rx.RERR")
	if n.cfg.Secure {
		// A reporter re-announcing the same broken link re-signs the same
		// (IIP, NIP) content, so repeated (and spammed) RERRs hit the
		// signature memo after the first check.
		ipk, err := identity.ParsePublicKey(n.cfg.Suite, m.IPK)
		if err != nil || !cga.Verify(m.IIP, m.IPK, m.Irn) ||
			!n.verify(ipk, wire.SigRERR(m.IIP, m.NIP), m.Sig) {
			n.met.Add1("rerr.rejected")
			return
		}
		// Source routing lets us check the reporter is actually a relay we
		// use; reports from strangers are meaningless (Section 4).
		if !n.usesRelay(m.IIP) {
			n.met.Add1("rerr.rejected")
			return
		}
	}
	n.met.Add1("rerr.accepted")
	dropped := n.routes.InvalidateLink(m.IIP, m.NIP)
	n.met.Inc("route.invalidated", float64(dropped))

	// Track reporter frequency: a host tearing down routes at high rate is
	// suspect even though each individual report must be accepted.
	if n.cfg.UseCredits {
		now := n.sim.Now()
		times := append(n.rerrTimes[m.IIP], now)
		cutoff := now.Add(-n.cfg.RERRWindow)
		for len(times) > 0 && times[0] < cutoff {
			times = times[1:]
		}
		n.rerrTimes[m.IIP] = times
		if len(times) > n.cfg.RERRThreshold {
			n.met.Add1("rerr.spammer_flagged")
			n.condemn(m.IIP)
			delete(n.rerrTimes, m.IIP)
		}
	}
}

// usesRelay reports whether h appears as a relay (or destination) in any
// live cached route.
func (n *Node) usesRelay(h ipv6.Addr) bool {
	now := n.sim.Now()
	for _, dst := range n.routes.Destinations() {
		if dst == h {
			return true
		}
		for _, r := range n.routes.Routes(dst, now) {
			for _, rel := range r.Relays {
				if rel == h {
					return true
				}
			}
		}
	}
	return false
}

// OutstandingData reports how many data packets await acknowledgement.
func (n *Node) OutstandingData() int { return len(n.outstanding) }

// LossStreak reports the consecutive unacknowledged packets toward dst.
func (n *Node) LossStreak(dst ipv6.Addr) int { return n.lossStreak[dst] }
