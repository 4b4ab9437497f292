package core

import (
	"sbr6/internal/dnssrv"
	"sbr6/internal/dsr"
	"sbr6/internal/ipv6"
	"sbr6/internal/wire"
)

// This file implements the client side of the secure DNS services
// (Section 3.2): challenge-bound signed lookups, and the re-binding flow a
// host runs when it changes its CGA address while keeping its name.
//
// The DNS server is reached through normal route discovery addressed to
// the well-known anycast ipv6.DNS1; only the true server's RREP is
// accepted because its key is the pre-distributed trust anchor.

// Resolve looks up a name at the DNS server and calls cb with the result.
// The answer is only accepted if signed by the DNS key over this query's
// challenge, so neither a fake DNS nor a replayed answer can satisfy it.
func (n *Node) Resolve(name string, cb func(addr ipv6.Addr, ok bool)) {
	if n.dead {
		cb(ipv6.Addr{}, false)
		return
	}
	if _, busy := n.resolves[name]; busy {
		cb(ipv6.Addr{}, false)
		return
	}
	st := &resolveState{ch: n.rng.Uint64(), cb: cb}
	st.timer = n.sim.After(n.cfg.ResolveTimeout, func() {
		delete(n.resolves, name)
		n.met.Add1("dns.resolve_timeout")
		cb(ipv6.Addr{}, false)
	})
	n.resolves[name] = st
	n.met.Add1("dns.resolve_started")

	n.needRoute(ipv6.DNS1, func(route dsr.Route, ok bool) {
		if !ok {
			if st.timer.Cancel() {
				delete(n.resolves, name)
				cb(ipv6.Addr{}, false)
			}
			return
		}
		n.SendAlong(route.Relays, n.dnsTarget(), &wire.DNSQuery{Name: name, Ch: st.ch})
	})
}

// dnsTarget returns the DNS server's real address when known, falling back
// to the anycast alias.
func (n *Node) dnsTarget() ipv6.Addr {
	if real, ok := n.aliases[ipv6.DNS1]; ok {
		return real
	}
	return ipv6.DNS1
}

func (n *Node) handleDNSQuery(pkt *wire.Packet, m *wire.DNSQuery) {
	if n.dns == nil {
		return
	}
	n.met.Add1("crypto.sign")
	ans := n.dns.HandleQuery(m)
	n.SendAlong(reverse(pkt.SrcRoute), pkt.Src, ans)
}

func (n *Node) handleDNSAnswer(pkt *wire.Packet, m *wire.DNSAnswer) {
	st, ok := n.resolves[m.Name]
	if !ok {
		n.met.Add1("dns.answer_unsolicited")
		return
	}
	// Only the secure protocol authenticates answers; the baseline client
	// believes whatever resolves first — the S1 attack surface. The check
	// goes through n.verify so it is counted and memoized like every other
	// signature verification.
	if n.cfg.Secure {
		if !n.verify(n.dnsPub, wire.SigDNSAnswer(m.Name, m.IP, m.Found, st.ch), m.Sig) {
			n.met.Add1("dns.answer_rejected")
			return
		}
	}
	delete(n.resolves, m.Name)
	st.timer.Cancel()
	n.met.Add1("dns.answer_accepted")
	st.cb(m.IP, m.Found)
}

// RebindAddress performs the Section 3.2 IP-address change: request a
// challenge for this node's name, regenerate the CGA address under the
// same key, prove ownership of both addresses, and wait for the server's
// signed verdict. cb receives the outcome.
func (n *Node) RebindAddress(cb func(ok bool)) {
	if n.dead {
		if cb != nil {
			cb(false)
		}
		return
	}
	n.startRebind(&rebindState{cb: cb})
}

// rebindNameFrom re-binds the node's registered name to its CURRENT
// (already DAD-verified) address, proving ownership of the abandoned old
// binding — the audit rekey's follow-up, where the address change happened
// before the update protocol could run.
func (n *Node) rebindNameFrom(oldIP ipv6.Addr, oldRn uint64) {
	n.startRebind(&rebindState{pre: true, oldIP: oldIP, oldRn: oldRn, cb: func(bool) {}})
}

// startRebind drives the challenge-based update flow for st.
func (n *Node) startRebind(st *rebindState) {
	if n.ident.Name == "" || n.rebind != nil {
		st.cb(false)
		return
	}
	n.rebind = st
	st.timer = n.sim.After(2*n.cfg.ResolveTimeout, func() {
		n.rebind = nil
		n.met.Add1("dns.rebind_timeout")
		st.cb(false)
	})
	n.met.Add1("dns.rebind_started")
	n.needRoute(ipv6.DNS1, func(route dsr.Route, ok bool) {
		if !ok || n.rebind == nil {
			return
		}
		n.SendAlong(route.Relays, n.dnsTarget(), &wire.UpdateReq{Name: n.ident.Name})
	})
}

func (n *Node) handleUpdateReq(pkt *wire.Packet, m *wire.UpdateReq) {
	if n.dns == nil {
		return
	}
	chal := n.dns.HandleUpdateReq(m)
	if chal == nil {
		return
	}
	n.met.Add1("crypto.sign")
	n.SendAlong(reverse(pkt.SrcRoute), pkt.Src, chal)
}

func (n *Node) handleUpdateChal(pkt *wire.Packet, m *wire.UpdateChal) {
	st := n.rebind
	if st == nil || m.Name != n.ident.Name || st.chTaken {
		return // no rebind in progress, or challenge already consumed
	}
	if !n.verify(n.dnsPub, wire.SigUpdateChal(m.Name, m.Ch), m.Sig) {
		n.met.Add1("dns.chal_rejected")
		return
	}
	st.ch = m.Ch
	st.chTaken = true
	if !st.pre {
		// Switch to the new address now: record the old binding for the
		// proof. (A pre-rekeyed rebind already switched — its fresh address
		// survived a full DAD round — and carries the old binding with it.)
		st.oldIP, st.oldRn = n.ident.Addr, n.ident.Rn
		n.ident.Regenerate(n.rng)
		n.routes.SetOwner(n.ident.Addr)
		n.met.Add1("addr.regenerated")
	}

	upd := dnssrv.BuildUpdate(n.ident, n.ident.Name, st.oldIP, st.oldRn, m.Ch)
	n.met.Add1("crypto.sign")
	// The route to the DNS was discovered under the old address; its relays
	// still forward by address so the packet still flows, and the reply
	// returns to the new source address via the reverse route.
	n.needRoute(ipv6.DNS1, func(route dsr.Route, ok bool) {
		if !ok || n.rebind == nil {
			return
		}
		n.SendAlong(route.Relays, n.dnsTarget(), upd)
	})
}

func (n *Node) handleUpdate(pkt *wire.Packet, m *wire.Update) {
	if n.dns == nil {
		return
	}
	// Count the verifications the server actually performed — it
	// short-circuits on unknown names, stale challenges and failed CGA
	// checks, so a flat "+3" would overcount exactly the rejected
	// (adversarial) updates and poison cache-hit accounting. The count
	// includes the two CGA checks: the one place CGA checks reach
	// crypto.verify.
	res, verifies := n.dns.HandleUpdateCounted(m)
	n.met.Inc("crypto.verify", float64(verifies))
	n.met.Add1("crypto.sign")
	n.SendAlong(reverse(pkt.SrcRoute), pkt.Src, res)
}

func (n *Node) handleUpdateResult(pkt *wire.Packet, m *wire.UpdateResult) {
	st := n.rebind
	if st == nil || m.Name != n.ident.Name {
		return
	}
	// The challenge comparison is free; only a matching challenge costs a
	// signature verification.
	if m.Ch != st.ch || !n.verify(n.dnsPub, wire.SigUpdateResult(m.Name, m.OK, m.Ch), m.Sig) {
		n.met.Add1("dns.result_rejected")
		return
	}
	n.rebind = nil
	st.timer.Cancel()
	if m.OK {
		n.met.Add1("dns.rebind_ok")
	} else {
		n.met.Add1("dns.rebind_failed")
	}
	st.cb(m.OK)
}
