// Package attack implements the adversaries of the paper's Section 4 as
// pluggable node behaviours: black and gray holes, address impersonation,
// control-message replay and forging, route-error spam, identity churn and
// DNS impersonation. Each behaviour records what it attempted so
// experiments can report acceptance rates alongside the defenders' own
// counters.
package attack

import (
	"time"

	"sbr6/internal/core"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/wire"
)

// BlackHole participates fully in route discovery — optionally forging
// cached-route replies to attract traffic ("announce having good routes
// leading to all other hosts") — and then silently swallows the data plane.
type BlackHole struct {
	// ForgeCacheReplies answers every RREQ with a fabricated CREP claiming
	// the destination is this node's neighbour. Plain DSR believes it; the
	// secure protocol rejects the missing destination signature.
	ForgeCacheReplies bool
	// DropControl additionally drops relayed control traffic (a cruder
	// variant that also disturbs discovery through itself).
	DropControl bool

	// Counters.
	DroppedData   int
	ForgedReplies int

	seen *ndp.FloodCache
}

// Intercept implements core.Behavior.
func (b *BlackHole) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	m, isRREQ := pkt.Msg.(*wire.RREQ)
	if !isRREQ || !b.ForgeCacheReplies || !n.Configured() {
		return false
	}
	if m.SIP == n.Addr() || m.DIP == n.Addr() {
		return false // let own/terminal handling proceed
	}
	if b.seen == nil {
		b.seen = ndp.NewFloodCache(1024)
	}
	if b.seen.Seen(m.SIP, m.Seq) {
		return true // already answered this flood; keep suppressing it
	}
	// Fabricate: "the destination is right next to me". No destination
	// signature exists, so Sig2/DPK are junk the attacker invents.
	toMe := m.Route()
	crep := &wire.CREP{
		S2IP:  m.SIP,
		SIP:   n.Addr(),
		DIP:   m.DIP,
		Seq2:  m.Seq,
		RRToS: toMe,
		Seq:   1,
		RRToD: nil,
		Sig2:  []byte("forged"),
		DPK:   n.Identity().Pub.Bytes(),
		Drn:   n.Identity().Rn,
	}
	if n.Config().Secure {
		// It can sign the fresh half honestly — that is not the weak link.
		crep.Sig1 = n.Identity().Sign(wire.SigRREP(m.SIP, m.Seq, toMe))
		crep.SPK = n.Identity().Pub.Bytes()
		crep.Srn = n.Identity().Rn
	}
	b.ForgedReplies++
	n.SendAlong(reverseAddrs(toMe), m.SIP, crep)
	return true // suppress the flood: traffic must come to us
}

// DropForward implements core.Behavior.
func (b *BlackHole) DropForward(n *core.Node, pkt *wire.Packet) bool {
	switch pkt.Msg.(type) {
	case *wire.Data, *wire.Ack:
		b.DroppedData++
		return true
	default:
		if b.DropControl {
			b.DroppedData++
			return true
		}
		return false
	}
}

// GrayHole forwards control traffic but drops each relayed data packet
// with probability P, which is harder to pin than a total black hole.
type GrayHole struct {
	P       float64
	Dropped int
	Passed  int
}

// Intercept implements core.Behavior.
func (g *GrayHole) Intercept(*core.Node, *wire.Packet, []byte) bool { return false }

// DropForward implements core.Behavior.
func (g *GrayHole) DropForward(n *core.Node, pkt *wire.Packet) bool {
	switch pkt.Msg.(type) {
	case *wire.Data, *wire.Ack:
		if n.Rand().Float64() < g.P {
			g.Dropped++
			return true
		}
		g.Passed++
	}
	return false
}

// Impersonator claims a victim's address: it answers route requests for
// the victim with an RREP naming the victim's address but proving nothing
// (it has no key whose CGA matches). It then consumes any data that arrives.
type Impersonator struct {
	Victim ipv6.Addr

	ForgedReplies int
	StolenData    int

	seen *ndp.FloodCache
}

// Intercept implements core.Behavior.
func (im *Impersonator) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	switch m := pkt.Msg.(type) {
	case *wire.RREQ:
		if m.DIP != im.Victim || !n.Configured() || m.SIP == n.Addr() {
			return false
		}
		if im.seen == nil {
			im.seen = ndp.NewFloodCache(1024)
		}
		if im.seen.Seen(m.SIP, m.Seq) {
			return true
		}
		// The forged route leads THROUGH the attacker: "the victim is my
		// neighbour". Data then arrives at the attacker for the final hop.
		toMe := m.Route()
		claimed := append(append([]ipv6.Addr(nil), toMe...), n.Addr())
		rep := &wire.RREP{
			SIP: m.SIP,
			DIP: im.Victim, // the lie: not the attacker's CGA address
			Seq: m.Seq,
			RR:  claimed,
		}
		if n.Config().Secure {
			// Best effort: sign with its own key. The CGA check
			// H(attackerPK, rn) != victim's interface ID defeats this.
			rep.Sig = n.Identity().Sign(wire.SigRREP(m.SIP, m.Seq, claimed))
			rep.DPK = n.Identity().Pub.Bytes()
			rep.Drn = n.Identity().Rn
		}
		im.ForgedReplies++
		n.SendAlong(reverseAddrs(toMe), m.SIP, rep)
		return true
	case *wire.Data:
		// Data addressed to the victim that reaches the attacker — as the
		// fake final relay or as the claimed destination — is stolen (this
		// only happens when the forged RREP was believed).
		if pkt.Dst != im.Victim {
			return false
		}
		atRelay := int(pkt.Hop) < len(pkt.SrcRoute) && pkt.SrcRoute[pkt.Hop] == n.Addr()
		atEnd := int(pkt.Hop) >= len(pkt.SrcRoute)
		if atRelay || atEnd {
			im.StolenData++
			return true
		}
	}
	return false
}

// DropForward implements core.Behavior.
func (im *Impersonator) DropForward(*core.Node, *wire.Packet) bool { return false }

// Replayer records interesting control frames it hears and retransmits
// them after Delay, exercising the replay analysis of Section 4 (stale
// challenges and sequence numbers make replays worthless).
type Replayer struct {
	Delay    time.Duration
	Replayed int

	captured int
}

// Intercept implements core.Behavior.
func (r *Replayer) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	switch pkt.Msg.(type) {
	case *wire.AREP, *wire.RREP, *wire.CREP, *wire.DNSAnswer, *wire.RERR:
		if r.captured < 256 { // bound memory
			r.captured++
			// Re-encode as if this node were forwarding the message right
			// now, so the replay actually travels the rest of the original
			// path and reaches the original recipient later.
			fwd := *pkt
			if int(fwd.Hop) < len(fwd.SrcRoute) {
				fwd.Hop++
			}
			frame := wire.Encode(&fwd)
			delay := r.Delay
			if delay <= 0 {
				delay = time.Second
			}
			for i, at := range []time.Duration{delay, 2 * delay} {
				_ = i
				n.Sim().After(at, func() {
					r.Replayed++
					n.RawBroadcast(frame)
				})
			}
		}
	}
	return false // pass through: a replayer still relays honestly
}

// DropForward implements core.Behavior.
func (r *Replayer) DropForward(*core.Node, *wire.Packet) bool { return false }

// RERRSpammer "reports errors where there are none": instead of relaying
// data it drops the packet and sends a correctly signed RERR claiming its
// next hop vanished. Each individual report is unfalsifiable (the paper
// accepts it) but the reporter's frequency gives it away.
type RERRSpammer struct {
	Sent int
}

// Intercept implements core.Behavior.
func (sp *RERRSpammer) Intercept(*core.Node, *wire.Packet, []byte) bool { return false }

// DropForward implements core.Behavior.
func (sp *RERRSpammer) DropForward(n *core.Node, pkt *wire.Packet) bool {
	if _, isData := pkt.Msg.(*wire.Data); !isData {
		return false
	}
	next, ok := pkt.NextHop()
	if !ok {
		return false
	}
	// The spammer is hop pkt.Hop; fabricate the break (me -> next+1...).
	// Use the packet's own next hop as the "broken" neighbour.
	rerr := &wire.RERR{IIP: n.Addr(), NIP: next}
	if n.Config().Secure {
		rerr.Sig = n.Identity().Sign(wire.SigRERR(n.Addr(), next))
		rerr.IPK = n.Identity().Pub.Bytes()
		rerr.Irn = n.Identity().Rn
	}
	var prefix []ipv6.Addr
	for i := 0; i < int(pkt.Hop) && i < len(pkt.SrcRoute); i++ {
		if pkt.SrcRoute[i] == n.Addr() {
			break
		}
		prefix = append(prefix, pkt.SrcRoute[i])
	}
	sp.Sent++
	n.SendAlong(reverseAddrs(prefix), pkt.Src, rerr)
	return true
}

// IdentityChurner is a black hole that sheds its identity on a timer: each
// churn draws a fresh CGA address so accumulated punishment is discarded.
// The paper's low-initial-credit rule is the countermeasure.
type IdentityChurner struct {
	Every time.Duration
	BlackHole
	Churns int

	started bool
}

// Intercept implements core.Behavior.
func (c *IdentityChurner) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	if !c.started {
		c.started = true
		c.scheduleChurn(n)
	}
	return c.BlackHole.Intercept(n, pkt, raw)
}

func (c *IdentityChurner) scheduleChurn(n *core.Node) {
	every := c.Every
	if every <= 0 {
		every = 10 * time.Second
	}
	n.Sim().After(every, func() {
		if n.Dead() {
			return // departed: stop, as a dead node's audit and flow chains do
		}
		n.Identity().Regenerate(n.Rand())
		c.Churns++
		c.scheduleChurn(n)
	})
}

// CloneAttacker squats a victim's CGA address from a different admission
// cell. The harness plants the victim's full identity on the attacker's
// node before formation (modelling the interface-ID collision that per-cell
// admission accepts on CGA's 2^-64 bound, here manufactured deliberately by
// an insider that leaked or cloned the victim's key material). From there
// the attacker is silent and deaf on everything that would resolve the
// conflict:
//
//   - it consumes AREQs probing its own address instead of objecting, so
//     the victim's DAD completes and the duplicate actually forms;
//   - it consumes AREP objections addressed to itself, so its own claim
//     survives formation even when the victim configured first;
//   - it consumes audit advertisements for its address (it will not
//     confirm a conflict) and audit objections (it will not concede one).
//
// What it cannot suppress is its own honest stack's periodic audit
// re-advertisement — the sweep makes every claimant speak — so the victim
// still hears a conflicting binding, raises its objection (ignored) and
// rekeys onto a fresh unique address: the network returns to address
// uniqueness with the theft on the record, which is the strongest outcome
// any protocol can offer against an adversary holding the victim's keys.
type CloneAttacker struct {
	// Counters.
	SilencedAREQs      int // victim DAD probes it refused to object to
	ObjectionsIgnored  int // AREP objections against its own claim it ate
	AuditAdvsIgnored   int // audit advertisements for its address it ate
	AuditObjsSwallowed int // audit objections it refused to act on
}

// Intercept implements core.Behavior.
func (c *CloneAttacker) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	switch m := pkt.Msg.(type) {
	case *wire.AREQ:
		if n.Configured() && m.SIP == n.Addr() {
			c.SilencedAREQs++
			return true
		}
	case *wire.AREP:
		if m.SIP == n.Addr() {
			c.ObjectionsIgnored++
			return true
		}
	case *wire.AuditAdv:
		if m.SIP == n.Addr() {
			c.AuditAdvsIgnored++
			return true
		}
	case *wire.AuditObj:
		if m.SIP == n.Addr() {
			// Only objections against ITS claim are swallowed; objections
			// between third-party claimants it happens to relay pass
			// through — a censor that ate those would out itself.
			c.AuditObjsSwallowed++
			return true
		}
	}
	return false
}

// DropForward implements core.Behavior.
func (c *CloneAttacker) DropForward(*core.Node, *wire.Packet) bool { return false }

// FakeDNS impersonates the DNS server: when asked to relay a DNS query it
// answers itself, mapping every name to the attacker's address. Without
// the true server's private key the signature cannot be produced, so the
// secure client rejects it; the baseline client is captured.
type FakeDNS struct {
	Answers int
}

// Intercept implements core.Behavior.
func (f *FakeDNS) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	q, isQuery := pkt.Msg.(*wire.DNSQuery)
	if !isQuery {
		return false
	}
	// Only act when relaying someone's query.
	if int(pkt.Hop) >= len(pkt.SrcRoute) || pkt.SrcRoute[pkt.Hop] != n.Addr() {
		return false
	}
	ans := &wire.DNSAnswer{
		Name:  q.Name,
		IP:    n.Addr(), // every name resolves to the attacker
		Found: true,
		// Signed with the attacker's key — the best it can do without the
		// DNS private key.
		Sig: n.Identity().Sign(wire.SigDNSAnswer(q.Name, n.Addr(), true, q.Ch)),
	}
	f.Answers++
	var prefix []ipv6.Addr
	for i := 0; i < int(pkt.Hop); i++ {
		prefix = append(prefix, pkt.SrcRoute[i])
	}
	n.SendAlong(reverseAddrs(prefix), pkt.Src, ans)
	return true // swallow the real query
}

// DropForward implements core.Behavior.
func (f *FakeDNS) DropForward(*core.Node, *wire.Packet) bool { return false }

func reverseAddrs(rr []ipv6.Addr) []ipv6.Addr {
	out := make([]ipv6.Addr, len(rr))
	for i, a := range rr {
		out[len(rr)-1-i] = a
	}
	return out
}

// Compile-time checks: every adversary satisfies core.Behavior.
var (
	_ core.Behavior = (*BlackHole)(nil)
	_ core.Behavior = (*GrayHole)(nil)
	_ core.Behavior = (*Impersonator)(nil)
	_ core.Behavior = (*Replayer)(nil)
	_ core.Behavior = (*RERRSpammer)(nil)
	_ core.Behavior = (*IdentityChurner)(nil)
	_ core.Behavior = (*FakeDNS)(nil)
	_ core.Behavior = (*CloneAttacker)(nil)
)
