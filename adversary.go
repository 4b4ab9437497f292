package sbr6

import (
	"fmt"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/scenario"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// Adversary places one of the paper's Section 4 attackers on a node.
// Construct values with the functions below; the zero value is rejected
// by NewScenario. Adversary state (drop counters, forged-reply counts) is
// created fresh for every run, so batch replicates never share it; read it
// back from a Runner's Result with AdversaryState, or from a Session
// through the node's Unwrap().Behavior.
type Adversary struct {
	node   int
	victim int // Impersonate and AddressClone only
	kind   string
	// The scalar attack parameters live beside kind (instead of only
	// inside the build closure) so the snapshot codec can serialize an
	// adversary and rebuild it through the kind registry.
	p     float64       // GrayHole drop probability
	delay time.Duration // Replay re-broadcast delay
	every time.Duration // IdentityChurner rekey interval
	build func() core.Behavior
	bind  func(b core.Behavior, sc *scenario.Scenario)
}

// Node returns the node index the adversary occupies.
func (a Adversary) Node() int { return a.node }

// Kind returns a short human-readable label for the attack.
func (a Adversary) Kind() string { return a.kind }

// BlackHole is an insider: it holds a valid identity, relays route
// discovery honestly, and silently swallows the data plane — the adversary
// the credit mechanism exists for.
func BlackHole(node int) Adversary {
	return Adversary{node: node, kind: "black hole",
		build: func() core.Behavior { return &attack.BlackHole{} }}
}

// ForgingBlackHole additionally forges cached-route replies to attract
// traffic ("announce having good routes leading to all other hosts").
// Plain DSR believes the forgery; the secure protocol rejects it.
func ForgingBlackHole(node int) Adversary {
	return Adversary{node: node, kind: "forging black hole",
		build: func() core.Behavior { return &attack.BlackHole{ForgeCacheReplies: true} }}
}

// GrayHole drops each relayed data packet independently with probability p.
func GrayHole(node int, p float64) Adversary {
	return Adversary{node: node, kind: "gray hole", p: p,
		build: func() core.Behavior { return &attack.GrayHole{P: p} }}
}

// RERRSpammer drops data it should relay and reports fabricated link
// breaks; per-report the lie is unfalsifiable, but its frequency flags it.
func RERRSpammer(node int) Adversary {
	return Adversary{node: node, kind: "RERR spammer",
		build: func() core.Behavior { return &attack.RERRSpammer{} }}
}

// FakeDNS impersonates the DNS server, answering relayed queries with the
// attacker's own address. Without the anchor's key the signature cannot be
// produced, so secure clients reject it.
func FakeDNS(node int) Adversary {
	return Adversary{node: node, kind: "fake DNS",
		build: func() core.Behavior { return &attack.FakeDNS{} }}
}

// Impersonate answers route discoveries for victim (a node index) with
// replies naming the victim's address, then consumes any data that
// arrives.
func Impersonate(node, victim int) Adversary {
	return Adversary{node: node, victim: victim, kind: "impersonator",
		build: func() core.Behavior { return &attack.Impersonator{} },
		bind: func(b core.Behavior, sc *scenario.Scenario) {
			b.(*attack.Impersonator).Victim = sc.Nodes[victim].Addr()
		}}
}

// AddressClone plants the victim's full identity on the attacker's node
// before formation and claims the victim's CGA address from wherever the
// attacker sits — the cross-cell duplicate that per-cell bootstrap
// admission accepts on CGA's collision bound. The attacker objects to
// nothing and concedes nothing; only the audit sweep (WithAuditSweep)
// forces the conflict into the open, at which point the honest victim
// rekeys onto a fresh unique address and the theft lands on the counters.
func AddressClone(node, victim int) Adversary {
	return Adversary{node: node, victim: victim, kind: "address clone",
		build: func() core.Behavior { return &attack.CloneAttacker{} },
		bind: func(b core.Behavior, sc *scenario.Scenario) {
			*sc.Nodes[node].Identity() = *sc.Nodes[victim].Identity()
		}}
}

// Replay captures control frames and re-broadcasts them after delay,
// exercising the replay analysis of Section 4.
func Replay(node int, delay time.Duration) Adversary {
	return Adversary{node: node, kind: "replayer", delay: delay,
		build: func() core.Behavior { return &attack.Replayer{Delay: delay} }}
}

// IdentityChurner is a forging black hole that draws a fresh CGA identity
// every interval, shedding accumulated punishment; the low-initial-credit
// rule is the countermeasure.
func IdentityChurner(node int, every time.Duration) Adversary {
	return Adversary{node: node, kind: "identity churner", every: every,
		build: func() core.Behavior {
			c := &attack.IdentityChurner{Every: every}
			c.ForgeCacheReplies = true
			return c
		}}
}

// advDescriptor is the serializable form of an Adversary: the constructor
// kind plus the scalar parameters. The snapshot codec stores descriptors
// and Resume rebuilds the live attack state through advKinds, so attacker
// closures never need to cross a process boundary.
type advDescriptor struct {
	Kind   string        `json:"kind"`
	Node   int           `json:"node"`
	Victim int           `json:"victim,omitempty"`
	P      float64       `json:"p,omitempty"`
	Delay  time.Duration `json:"delay,omitempty"`
	Every  time.Duration `json:"every,omitempty"`
}

// advKinds maps a descriptor kind back to its constructor. Every public
// Adversary constructor registers here; a kind missing from the registry
// is a snapshot from a newer build and is rejected rather than guessed at.
var advKinds = map[string]func(d advDescriptor) Adversary{
	"black hole":         func(d advDescriptor) Adversary { return BlackHole(d.Node) },
	"forging black hole": func(d advDescriptor) Adversary { return ForgingBlackHole(d.Node) },
	"gray hole":          func(d advDescriptor) Adversary { return GrayHole(d.Node, d.P) },
	"RERR spammer":       func(d advDescriptor) Adversary { return RERRSpammer(d.Node) },
	"fake DNS":           func(d advDescriptor) Adversary { return FakeDNS(d.Node) },
	"impersonator":       func(d advDescriptor) Adversary { return Impersonate(d.Node, d.Victim) },
	"address clone":      func(d advDescriptor) Adversary { return AddressClone(d.Node, d.Victim) },
	"replayer":           func(d advDescriptor) Adversary { return Replay(d.Node, d.Delay) },
	"identity churner":   func(d advDescriptor) Adversary { return IdentityChurner(d.Node, d.Every) },
}

// descriptor returns the adversary's serializable form.
func (a Adversary) descriptor() advDescriptor {
	return advDescriptor{Kind: a.kind, Node: a.node, Victim: a.victim, P: a.p, Delay: a.delay, Every: a.every}
}

// adversaryFromDescriptor rebuilds an Adversary from its serialized form.
func adversaryFromDescriptor(d advDescriptor) (Adversary, error) {
	mk, ok := advKinds[d.Kind]
	if !ok {
		return Adversary{}, fmt.Errorf("unknown adversary kind %q", d.Kind)
	}
	return mk(d), nil
}

// tapBehavior is the pass-through behavior WithTap installs on honest
// nodes: it records every reception and never alters the pipeline.
type tapBehavior struct {
	f    func(TapEvent)
	node int
}

// Intercept implements core.Behavior.
func (t *tapBehavior) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	t.f(TapEvent{Node: t.node, At: sinceStart(n.Sim().Now()), Desc: pkt.String()})
	return false
}

// DropForward implements core.Behavior.
func (t *tapBehavior) DropForward(*core.Node, *wire.Packet) bool { return false }

func sinceStart(t sim.Time) time.Duration { return time.Duration(t) }
