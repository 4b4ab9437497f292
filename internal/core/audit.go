package core

import (
	"sbr6/internal/audit"
	"sbr6/internal/ndp"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// This file implements the node's side of the post-formation address audit
// sweep (internal/audit): periodically re-advertising the CGA address
// binding, objecting to a heard advertisement for an address this node
// itself holds, and deterministically resolving the conflict — the losing
// binding rekeys and re-runs DAD. The sweep closes the duplicate-address
// windows one-shot DAD cannot see: concurrent cross-cell claims during
// per-cell admission, and partition merges where both claimants configured
// long before sharing a radio.

// AuditAdvertise floods one signed re-advertisement of the node's current
// address binding. The scenario harness calls it once per sweep period at
// the node's seed-stable phase; a node that is mid-DAD (rekeying after a
// lost conflict, or still bootstrapping) skips its turn — it holds no
// committed binding to advertise.
func (n *Node) AuditAdvertise() {
	if !n.configured || !n.cfg.Audit.Enabled() {
		return
	}
	n.auditSeq++
	n.auditCh = n.src.Uint64()
	m := audit.BuildAdv(n.ident, n.auditSeq, n.auditCh)
	n.met.Add1(trace.CryptoSign)
	n.met.Add1(trace.AuditAdvSent)
	n.auditSeen.Seen(m.SIP, challengeKey(m.Seq, m.Ch))
	n.Flood(m, n.auditTTL())
}

// auditTTL bounds the advertisement flood: the configured audit TTL, or the
// protocol TTL when unset.
func (n *Node) auditTTL() uint8 {
	if t := n.cfg.Audit.TTL; t > 0 {
		return t
	}
	return n.cfg.TTL
}

// verifier returns the node's memoizing verifier: the cache when
// enabled, and nil for the documented direct-computation fallback (a
// typed-nil interface would bypass it).
func (n *Node) verifier() ndp.Verifier {
	if n.vcache != nil {
		return n.vcache
	}
	return nil
}

// handleAuditAdv decodes the advertisement only at a configured holder of
// the advertised address; every other node relays it from the envelope
// alone.
func (n *Node) handleAuditAdv(f *frame) {
	n.met.Add1(trace.RxAADV)

	// A configured holder of the advertised address consumes the flood —
	// the conflict gets resolved here, relaying it further serves no one.
	if n.configured && f.env.SIP == n.ident.Addr {
		n.handleConflictingAdv(f.packet().Msg.(*wire.AuditAdv))
		return
	}

	// Relay with this node appended to the route record, AREQ-style, so an
	// objector further out still owns a reverse path to the advertiser.
	n.relayRecord(f)
}

// handleConflictingAdv runs when another node advertised a binding for THIS
// node's address: verify the claim, object with our own proof, and resolve
// our side of the conflict deterministically.
func (n *Node) handleConflictingAdv(m *wire.AuditAdv) {
	mine := n.ident
	if audit.SameBinding(m.PK, m.Rn, mine.Pub.Bytes(), mine.Rn) &&
		(m.Seq < n.auditSeq || m.Ch == n.auditCh) {
		// A replayed copy of our own advertisement, not a live clone. An
		// older round is always an echo — a clone's round counter can never
		// trail ours, clones sweep the same rounds — and a current-round
		// copy carries exactly the challenge we drew this round, which a
		// clone's independent draw matches with probability 2^-64. Without
		// the challenge check a current-round replay would survive the
		// bounded flood seen-set being evicted mid-period and force a
		// spurious self-rekey.
		//
		// An adversary holding our private key could deliberately CRAFT
		// advertisements shaped like replays (stale signed round, copied
		// challenge) to slip past this filter undetected — but such an
		// adversary gains nothing the filter enables: it can suppress its
		// side of the conflict completely by simply never advertising. No
		// protocol can force a silent key-holder to reveal itself; what the
		// sweep guarantees is that any claimant RUNNING the protocol is
		// heard, and that hearing one resolves the conflict.
		n.met.Add1(trace.AuditReplaysIgnored)
		return
	}
	n.met.Add1(trace.CryptoVerify)
	if err := audit.ValidateAdv(n.verifier(), m, mine.Pub.Suite()); err != nil {
		n.met.Add1(trace.AuditAdvRejected)
		return
	}
	n.met.Add1(trace.AuditConflicts)
	n.met.Add1(trace.AuditObjectionsSent)
	obj := audit.BuildObjection(mine, m.SIP, m.Ch, m.RR)
	n.met.Add1(trace.CryptoSign)
	n.sendToUnconfigured(m.RR, m.SIP, obj)
	if audit.Resolve(mine.Pub.Bytes(), mine.Rn, m.PK, m.Rn) == audit.Rekey {
		n.auditRekey()
	}
}

// handleAuditObj runs at the advertiser when a conflicting binding holder
// objected to its current advertisement.
func (n *Node) handleAuditObj(pkt *wire.Packet, m *wire.AuditObj) {
	n.met.Add1(trace.RxAOBJ)
	if !n.configured || m.SIP != n.ident.Addr || n.auditCh == 0 {
		return
	}
	mine := n.ident
	n.met.Add1(trace.CryptoVerify)
	if err := audit.ValidateObj(n.verifier(), m, mine.Pub.Suite(), n.auditCh); err != nil {
		n.met.Add1(trace.AuditObjRejected)
		return
	}
	// One resolution per sweep round: further objections (a third claimant,
	// duplicate copies over other paths) wait for the next advertisement.
	n.auditCh = 0
	n.met.Add1(trace.AuditConflicts)
	if audit.Resolve(mine.Pub.Bytes(), mine.Rn, m.PK, m.Rn) == audit.Rekey {
		n.auditRekey()
	}
}

// auditRekey abandons the contested address: fresh CGA modifier, full DAD
// re-run. The node drops out of the configured set until the new claim
// survives its objection window, exactly like a first join. A registered
// name sits out the re-run — the DNS still holds it committed to the
// abandoned address, so a named AREQ would draw the server's own 6DNAR
// objection and silently rename us — and is re-bound to the fresh address
// through the signed update protocol once DAD completes (see dadDone).
func (n *Node) auditRekey() {
	n.met.Add1(trace.AuditRekeys)
	n.configured = false
	n.auditCh = 0
	// Abort any in-flight ordinary rebind: the address world it operates in
	// is gone, its proof material is about to become stale, and a busy
	// rebind slot would silently swallow the post-DAD name re-bind below.
	if st := n.rebind; st != nil {
		n.rebind = nil
		st.timer.Cancel()
		n.met.Add1(trace.DNSRebindAborted)
		st.cb(false)
	}
	if n.ident.Name != "" {
		n.auditRebind = &pendingRebind{name: n.ident.Name, oldIP: n.ident.Addr, oldRn: n.ident.Rn}
		n.ident.Name = ""
	}
	n.ident.Regenerate(n.src)
	n.autoconf.Start()
}
