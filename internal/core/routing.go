package core

import (
	"strconv"

	"sbr6/internal/cga"
	"sbr6/internal/dsr"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// This file implements secure route discovery (Section 3.3): RREQ floods
// with per-hop identity attestations, destination-signed RREPs,
// dual-signature CREPs from caches, and the verification procedures that
// let every participant check every identity on a path.

// needRoute runs fn once a route to dst is available (possibly immediately
// from cache), or with ok=false when discovery fails.
func (n *Node) needRoute(dst ipv6.Addr, fn func(route dsr.Route, ok bool)) {
	if n.cfg.UseCache {
		if r, ok := n.routes.Best(dst, n.sim.Now(), n.routeScore()); ok {
			fn(r, true)
			return
		}
	}
	d, inFlight := n.pending[dst]
	if !inFlight {
		d = &discovery{seq: n.nextSeq()}
		n.pending[dst] = d
		n.sendRREQ(dst, d)
	}
	d.waiters = append(d.waiters, fn)
}

// routeScore returns the credit-based route scorer, or nil when credits
// are disabled (plain shortest-path selection).
func (n *Node) routeScore() func([]ipv6.Addr) float64 {
	if !n.cfg.UseCredits {
		return nil
	}
	return n.credits.RouteScore
}

func (n *Node) nextSeq() uint32 {
	n.rreqSeq++
	return n.rreqSeq
}

func (n *Node) sendRREQ(dst ipv6.Addr, d *discovery) {
	m := &wire.RREQ{SIP: n.ident.Addr, DIP: dst, Seq: d.seq}
	if n.cfg.Secure {
		m.SrcSig = n.sign(wire.SigRREQSource(m.SIP, m.Seq))
		m.SPK = n.ident.Pub.Bytes()
		m.Srn = n.ident.Rn
	}
	n.rreqSeen.Seen(m.SIP, m.Seq)
	n.met.Add1(trace.DiscoveryAttempts)
	n.Flood(m, n.cfg.TTL)

	d.timer = n.sim.After(n.cfg.DiscoveryTimeout, func() {
		if d.retries < n.cfg.DiscoveryRetries {
			d.retries++
			d.seq = n.nextSeq()
			n.sendRREQ(dst, d)
			return
		}
		delete(n.pending, dst)
		n.met.Add1(trace.DiscoveryFailed)
		for _, w := range d.waiters {
			w(dsr.Route{}, false)
		}
	})
}

// handleRREQ decodes the request only at its destination and at a node
// holding a cached route it could answer with a CREP; every other node
// relays it from the envelope alone, splicing its hop attestation into
// the received bytes.
func (n *Node) handleRREQ(f *frame) {
	n.met.Add1(trace.RxRREQ)

	if n.ownsAddr(f.env.DIP) {
		n.answerRREQ(f.packet().Msg.(*wire.RREQ))
		return
	}

	// Cached-route answer (CREP) from an intermediate node. In secure mode
	// only an attested entry (destination-signed) may be served, and only
	// after the querier's route record verifies; plain DSR answers from any
	// cached route with no checks — which is precisely what a black hole
	// exploits. A cached route that would loop through the querier or a
	// hop already on the request's path must not be served (DSR's loop
	// rule); such requests fall through to normal rebroadcast.
	if r, ok := n.crepRoute(f.env.DIP); ok {
		m := f.packet().Msg.(*wire.RREQ)
		if !crepWouldLoop(m, n.ident.Addr, r.Relays) && (!n.cfg.Secure || n.verifySRR(m) == nil) {
			n.sendCREP(m, r)
			return
		}
	}

	if f.env.TTL <= 1 || f.env.RecordLen >= maxFloodRecord {
		return
	}
	h := n.hopAttestation(f.env.Seq)
	n.met.Add1(trace.FwdRREQ)
	n.medium.BroadcastFrame(n.link, n.spliceFrame(f, &h))
}

// crepRoute returns the cached route this node may serve a CREP from: an
// attested (destination-signed) entry in secure mode, any cached route in
// plain DSR, none when route caching is off.
func (n *Node) crepRoute(dst ipv6.Addr) (dsr.Route, bool) {
	switch {
	case !n.cfg.UseCache:
		return dsr.Route{}, false
	case n.cfg.Secure:
		return n.routes.Attested(dst, n.sim.Now())
	default:
		return n.routes.Best(dst, n.sim.Now(), nil)
	}
}

// hopAttestation builds this node's SRR entry: signed in secure mode, a
// bare address in baseline mode.
func (n *Node) hopAttestation(seq uint32) wire.HopAttestation {
	h := wire.HopAttestation{IP: n.ident.Addr}
	if n.cfg.Secure {
		h.Sig = n.sign(wire.SigHop(n.ident.Addr, seq))
		h.PK = n.ident.Pub.Bytes()
		h.Rn = n.ident.Rn
	}
	return h
}

// verifySRR runs the destination's checks from Section 3.3: the source and
// every intermediate hop must satisfy (i) the CGA binding and (ii) a valid
// signature over (IP, seq). Each signature check goes through the node's
// verification cache.
func (n *Node) verifySRR(m *wire.RREQ) error {
	spk, err := identity.ParsePublicKey(n.cfg.Suite, m.SPK)
	if err != nil {
		return errBadIdentity("source key", err)
	}
	if !cga.Verify(m.SIP, m.SPK, m.Srn) {
		return errVerify("source CGA binding")
	}
	if !n.verify(spk, wire.SigRREQSource(m.SIP, m.Seq), m.SrcSig) {
		return errVerify("source signature")
	}
	for i, h := range m.SRR {
		pk, err := identity.ParsePublicKey(n.cfg.Suite, h.PK)
		if err != nil {
			return errBadIdentity("hop key", err)
		}
		if !cga.Verify(h.IP, h.PK, h.Rn) {
			return errVerifyHop("CGA binding", i)
		}
		if !n.verify(pk, wire.SigHop(h.IP, m.Seq), h.Sig) {
			return errVerifyHop("signature", i)
		}
	}
	return nil
}

// answerRREQ is the destination side: verify the secure route record, then
// return a signed RREP along the reverse path.
func (n *Node) answerRREQ(m *wire.RREQ) {
	if n.cfg.Secure {
		if err := n.verifySRR(m); err != nil {
			n.met.Add1(trace.RREQRejected)
			return
		}
	}
	rr := m.Route()
	rep := &wire.RREP{
		SIP: m.SIP,
		DIP: n.ident.Addr, // real, CGA-verifiable address (not an alias)
		Seq: m.Seq,
		RR:  rr,
	}
	if n.cfg.Secure {
		rep.Sig = n.sign(wire.SigRREP(m.SIP, m.Seq, rr))
		rep.DPK = n.ident.Pub.Bytes()
		rep.Drn = n.ident.Rn
	}
	n.met.Add1(trace.RREPSent)
	n.SendAlong(reverse(rr), m.SIP, rep)
}

func (n *Node) handleRREP(pkt *wire.Packet, m *wire.RREP) {
	n.met.Add1(trace.RxRREP)
	if m.SIP != n.ident.Addr {
		return
	}
	dst, d := n.findPending(m.Seq)
	if d == nil {
		n.met.Add1(trace.RREPUnsolicited)
		return
	}

	if n.cfg.Secure {
		dpk, err := identity.ParsePublicKey(n.cfg.Suite, m.DPK)
		if err != nil || !cga.Verify(m.DIP, m.DPK, m.Drn) ||
			!n.verify(dpk, wire.SigRREP(m.SIP, m.Seq, m.RR), m.Sig) {
			n.met.Add1(trace.RREPRejected)
			return
		}
		// A reply for the DNS anycast must come from the real DNS server:
		// its key is the trust anchor every host carries.
		if isDNSAlias(dst) && string(m.DPK) != string(n.dnsPub.Bytes()) {
			n.met.Add1(trace.RREPRejected)
			return
		}
	}

	if isDNSAlias(dst) {
		// Remember the server's real address: unicasts must target it, as
		// no link layer resolves the anycast alias.
		n.aliases[dst] = m.DIP
	}
	route := dsr.Route{
		Relays: m.RR,
		// Alias routes (DNS anycast) are never re-served as CREPs: the
		// attestation binds the server's real address, not the alias.
		Attested: n.cfg.Secure && !isDNSAlias(dst),
		Seq:      m.Seq,
		Sig:      m.Sig,
		DPK:      m.DPK,
		Drn:      m.Drn,
	}
	n.installRoute(dst, route)
}

// findPending locates the discovery matching a reply sequence number.
// (Replies echo the RREQ seq; destinations are keyed separately because a
// reply for the DNS alias carries the server's real address.)
func (n *Node) findPending(seq uint32) (ipv6.Addr, *discovery) {
	//sbr6:commutative seqs come from the per-node nextSeq counter, so at most one discovery matches
	for dst, d := range n.pending {
		if d.seq == seq {
			return dst, d
		}
	}
	return ipv6.Addr{}, nil
}

func isDNSAlias(a ipv6.Addr) bool {
	return a == ipv6.DNS1 || a == ipv6.DNS2 || a == ipv6.DNS3
}

func (n *Node) installRoute(dst ipv6.Addr, route dsr.Route) {
	n.routes.Put(dst, route, n.sim.Now())
	n.met.Add1(trace.RouteInstalled)
	n.met.Observe("route.len", float64(route.Len()))
	if d, ok := n.pending[dst]; ok {
		delete(n.pending, dst)
		if d.timer != nil {
			d.timer.Cancel()
		}
		for _, w := range d.waiters {
			w(route, true)
		}
	}
}

// sendCREP answers another host's RREQ from this node's attested cache
// (Section 3.3): the fresh half (querier -> me) is signed now with my key;
// the cached half (me -> destination) still carries the destination's
// original signature.
func (n *Node) sendCREP(m *wire.RREQ, cached dsr.Route) {
	toMe := m.Route()
	crep := &wire.CREP{
		S2IP:  m.SIP,
		SIP:   n.ident.Addr,
		DIP:   m.DIP,
		Seq2:  m.Seq,
		RRToS: toMe,
		Seq:   cached.Seq,
		RRToD: cached.Relays,
		Sig2:  cached.Sig,
		DPK:   cached.DPK,
		Drn:   cached.Drn,
	}
	if n.cfg.Secure {
		crep.Sig1 = n.sign(wire.SigRREP(m.SIP, m.Seq, toMe))
		crep.SPK = n.ident.Pub.Bytes()
		crep.Srn = n.ident.Rn
	}
	n.met.Add1(trace.CREPSent)
	n.SendAlong(reverse(toMe), m.SIP, crep)
}

func (n *Node) handleCREP(pkt *wire.Packet, m *wire.CREP) {
	n.met.Add1(trace.RxCREP)
	if m.S2IP != n.ident.Addr {
		return
	}
	d, ok := n.pending[m.DIP]
	if !ok || d.seq != m.Seq2 {
		n.met.Add1(trace.CREPUnsolicited)
		return
	}

	if n.cfg.Secure {
		// Fresh half: the cache holder signs (S2IP, seq2, RRToS) now; the
		// fresh seq2 defeats replay.
		spk, err := identity.ParsePublicKey(n.cfg.Suite, m.SPK)
		if err != nil || !cga.Verify(m.SIP, m.SPK, m.Srn) ||
			!n.verify(spk, wire.SigRREP(m.S2IP, m.Seq2, m.RRToS), m.Sig1) {
			n.met.Add1(trace.CREPRejected)
			return
		}
		// Cached half: the destination's original attestation must bind the
		// holder, its old sequence number, and the cached relays. The same
		// attestation recurs every time the holder re-serves its cache
		// entry, so this is a signature-memo hot spot.
		dpk, err := identity.ParsePublicKey(n.cfg.Suite, m.DPK)
		if err != nil || !cga.Verify(m.DIP, m.DPK, m.Drn) ||
			!n.verify(dpk, wire.SigRREP(m.SIP, m.Seq, m.RRToD), m.Sig2) {
			n.met.Add1(trace.CREPRejected)
			return
		}
	}

	// Full path: me -> RRToS -> holder -> RRToD -> destination. Reject
	// routes that revisit any node (the paper's protocol inherits DSR's
	// loop-freedom requirement; a looping cached reply is useless or
	// hostile).
	relays := append(append([]ipv6.Addr(nil), m.RRToS...), m.SIP)
	relays = append(relays, m.RRToD...)
	if hasDuplicateHop(n.ident.Addr, relays, m.DIP) {
		n.met.Add1(trace.CREPRejected)
		return
	}
	// Routes learned via CREP carry no attestation this node could re-serve
	// (the cached signature binds the holder, not us).
	n.installRoute(m.DIP, dsr.Route{Relays: relays})
}

// crepWouldLoop reports whether serving the cached relays to the querier
// would build a path visiting some node twice: the candidate full path is
// querier, SRR hops..., holder, cached relays..., destination.
func crepWouldLoop(m *wire.RREQ, holder ipv6.Addr, cached []ipv6.Addr) bool {
	seen := map[ipv6.Addr]bool{m.SIP: true, m.DIP: true, holder: true}
	if m.SIP == m.DIP || m.SIP == holder || m.DIP == holder {
		return true
	}
	for _, h := range m.SRR {
		if seen[h.IP] {
			return true
		}
		seen[h.IP] = true
	}
	for _, rel := range cached {
		if seen[rel] {
			return true
		}
		seen[rel] = true
	}
	return false
}

// hasDuplicateHop reports whether the path src, relays..., dst revisits
// any node.
func hasDuplicateHop(src ipv6.Addr, relays []ipv6.Addr, dst ipv6.Addr) bool {
	seen := map[ipv6.Addr]bool{src: true}
	if dst == src {
		return true
	}
	for _, rel := range relays {
		if seen[rel] || rel == dst {
			return true
		}
		seen[rel] = true
	}
	return false
}

// Small error helpers keep verifySRR's failure reasons greppable in tests.

type verifyError string

func (e verifyError) Error() string { return "core: verification failed: " + string(e) }

func errVerify(what string) error { return verifyError(what) }

// errVerifyHop names the failing entry of the route record by its index,
// counting from 0 at the relay nearest the source.
func errVerifyHop(what string, hop int) error {
	return verifyError("hop " + strconv.Itoa(hop) + " " + what)
}

func errBadIdentity(what string, err error) error {
	return verifyError(what + ": " + err.Error())
}
