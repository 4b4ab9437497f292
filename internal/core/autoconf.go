package core

import (
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// This file implements the node's side of secure address autoconfiguration
// (Section 3.1): flooding AREQs, objecting to duplicates with challenge-
// signed AREPs, warning the DNS server, and relaying the replies back to a
// host that does not yet own a routable address.

// sendAREQ is wired into the ndp.Initiator: it floods the request and
// pre-marks it as seen so the node ignores echoed copies of its own flood.
func (n *Node) sendAREQ(m *wire.AREQ) {
	n.areqSeen.Seen(m.SIP, challengeKey(m.Seq, m.Ch))
	n.met.Add1(trace.DADRounds)
	n.Flood(m, n.cfg.TTL)
}

// handleAREQ decodes the request only at the configured owner of the
// probed address and at the DNS server; every other node relays it from
// the envelope alone.
func (n *Node) handleAREQ(f *frame) {
	n.met.Add1(trace.RxAREQ)

	// A configured owner of the probed address objects and stops the flood
	// here: the requester must pick a new address anyway.
	if n.configured && f.env.SIP == n.ident.Addr {
		m := f.packet().Msg.(*wire.AREQ)
		n.met.Add1(trace.DADObjectionsSent)
		arep := ndp.BuildAREP(n.ident, m.SIP, m.Ch, m.RR)
		n.met.Add1(trace.CryptoSign)
		n.sendToUnconfigured(m.RR, m.SIP, arep)
		if m.DN != "" && n.dns == nil {
			// Warn the DNS so the conflicting name registration is not
			// committed. Routes may not exist during bootstrap, so this
			// travels as a flood addressed to the DNS anycast.
			n.floodToDNS(arep)
		}
		return
	}

	// The DNS server checks the domain-name side (6DNAR).
	if n.dns != nil {
		m := f.packet().Msg.(*wire.AREQ)
		if drep := n.dns.HandleAREQ(m); drep != nil {
			n.met.Add1(trace.CryptoSign) // the server signed the DREP
			n.sendToUnconfigured(m.RR, m.SIP, drep)
		}
	}

	// Relay the flood with this node appended to the route record.
	n.relayRecord(f)
}

// sendToUnconfigured source-routes a reply along the reverse of the AREQ's
// route record toward a host that may not own its address yet (final hop
// broadcast).
func (n *Node) sendToUnconfigured(rr []ipv6.Addr, dst ipv6.Addr, msg wire.Message) {
	pkt := &wire.Packet{Src: n.ident.Addr, Dst: dst, TTL: n.cfg.TTL, SrcRoute: reverse(rr), Msg: msg}
	n.sendSourceRouted(pkt, nil)
}

// floodToDNS broadcasts a control message addressed to the DNS anycast;
// every configured node re-floods it once (content-hash dedup) until the
// DNS consumes it. This is the bootstrap-safe path used before routes
// exist.
func (n *Node) floodToDNS(msg wire.Message) {
	pkt := &wire.Packet{Src: n.ident.Addr, Dst: ipv6.DNS1, TTL: n.cfg.TTL, Msg: msg}
	raw := n.encodeFrame(pkt)
	n.dnsFloods.Seen(pkt.Src, dnsFloodKey(raw)) // hashed before ownership transfers
	n.medium.BroadcastFrame(n.link, raw)
}

// handleDNSFlood consumes a flood-routed DNS control message at the DNS
// server and relays it, TTL decremented and undecoded, everywhere else.
func (n *Node) handleDNSFlood(f *frame) {
	if n.dns != nil {
		if m, ok := f.packet().Msg.(*wire.AREP); ok {
			n.met.Add1(trace.CryptoVerify) // server validates the warn
			if n.dns.HandleWarnAREP(m) {
				n.met.Add1(trace.DNSWarnsAccepted)
			}
		}
		return
	}
	if !n.configured || f.env.TTL <= 1 {
		return
	}
	n.medium.BroadcastFrame(n.link, n.spliceFrame(f, nil))
}

func (n *Node) handleAREP(pkt *wire.Packet, m *wire.AREP) {
	n.met.Add1(trace.RxAREP)
	if n.autoconf.State() != ndp.StateProbing {
		return
	}
	n.met.Add1(trace.CryptoVerify)
	if err := n.autoconf.HandleAREP(m); err != nil {
		n.met.Add1(trace.DADAREPRejected)
		return
	}
	n.met.Add1(trace.DADAREPAccepted)
}

func (n *Node) handleDREP(pkt *wire.Packet, m *wire.DREP) {
	n.met.Add1(trace.RxDREP)
	if n.autoconf.State() != ndp.StateProbing {
		return
	}
	n.met.Add1(trace.CryptoVerify)
	if err := n.autoconf.HandleDREP(m); err != nil {
		n.met.Add1(trace.DADDREPRejected)
		return
	}
	n.met.Add1(trace.DADDREPAccepted)
}
