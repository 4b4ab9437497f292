// Package audit implements the post-formation address audit sweep: the
// gossip-style closing of the one duplicate-address window the bootstrap
// admission policies leave open.
//
// The paper's extended DAD (Section 3.1) detects a duplicate claim only
// when a configured owner is inside the claimant's AREQ flood during the
// objection window. PR 4's per-cell admission keeps that guarantee for
// claimants sharing a grid cell, but accepts two residual cases on CGA's
// collision bound alone: simultaneous claims from different cells (neither
// claimant configured when the other floods), and partition merges (both
// claimants configured long before they share a radio at all — the common
// case in self-forming networks, not the corner case). Slimane et al.'s
// critique of passive one-shot DAD under partitions is exactly this gap.
//
// The sweep closes it: every configured node periodically re-advertises its
// CGA address binding in a signed, flooded AuditAdv. A node holding a
// conflicting binding for the advertised address answers with a signed
// AuditObj echoing the advertisement's challenge; both claimants verify the
// other's proof and resolve the conflict deterministically — the binding
// with the lower CGA digest rekeys (fresh modifier, DAD re-run), and a
// bit-identical binding (a cloned identity, the only conflict an honest
// simulation can manufacture without a SHA-256 collision) makes both sides
// rekey, since no protocol-visible evidence can distinguish original from
// clone. Either way the network returns to unique addresses within one
// sweep exchange.
//
// Sweep timing is a pure function of (seed, node index): per-node phases
// come from the same splitmix-style hashing boot.PerCell uses for cell
// phases, so sweeps never synchronize into network-wide flood bursts and
// never consume simulator randomness — scheduling the sweep cannot perturb
// the rest of a seeded run.
package audit

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"sbr6/internal/boot"
	"sbr6/internal/cga"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/wire"
)

// Config tunes the audit sweep. The zero value disables it entirely: no
// events are scheduled, no randomness is drawn, and a run is byte-for-byte
// identical to one on a build that predates the sweep.
type Config struct {
	// Period is the sweep interval; each configured node re-advertises its
	// binding once per period at a seed-stable phase. <= 0 disables the
	// sweep.
	Period time.Duration
	// TTL bounds the advertisement flood's hop count; 0 falls back to the
	// node's protocol TTL. Bounding it trades detection radius for cost:
	// with a TTL of k the sweep finds any duplicate within k hops at
	// O(density*k^2) relays per advertisement — flat in the network size —
	// while the full protocol TTL audits the whole connected component.
	TTL uint8
}

// Enabled reports whether the sweep is configured to run.
func (c Config) Enabled() bool { return c.Period > 0 }

// Offset returns node id's seed-stable advertisement phase inside one sweep
// period: a deterministic hash of (seed, id) reduced to [0, period). It is
// literally boot.PerCell's phase construction (boot.Mix), consumes no
// RNG stream, so two nodes' sweeps interleave the same way on every run
// of one seed while the population's phases spread uniformly across the
// period instead of thundering together.
func Offset(seed int64, id int, period time.Duration) time.Duration {
	if period <= 0 {
		return 0
	}
	return time.Duration(boot.Mix(uint64(seed), 0xa0d175, uint64(id)) % uint64(period))
}

// Verdict is one claimant's side of a deterministic conflict resolution.
type Verdict int

// Resolution verdicts.
const (
	// Keep means the peer's binding loses: hold the address and let the
	// peer rekey.
	Keep Verdict = iota
	// Rekey means this binding loses (or the bindings are bit-identical):
	// abandon the address, draw a fresh modifier and re-run DAD.
	Rekey
)

// String names the verdict.
func (v Verdict) String() string {
	if v == Rekey {
		return "rekey"
	}
	return "keep"
}

// Resolve decides which side of a verified binding conflict must abandon
// the address. Both claimants evaluate it with the roles swapped and reach
// complementary verdicts: the binding whose digest orders lower rekeys,
// the other keeps. Bit-identical bindings — a cloned identity, where no
// signature or CGA proof can tell original from copy — return Rekey for
// both sides: each claimant regenerates from its own randomness, so the
// clones separate onto fresh distinct addresses within one DAD round.
//
// The comparison key is the full SHA-256 digest of the CGA input (PK, rn),
// not the 64-bit truncation that forms the address: the conflict exists
// precisely because the truncations collide, while the full digests differ
// for any two distinct bindings.
func Resolve(minePK []byte, mineRn uint64, peerPK []byte, peerRn uint64) Verdict {
	mine := bindingDigest(minePK, mineRn)
	peer := bindingDigest(peerPK, peerRn)
	if bytes.Compare(mine[:], peer[:]) <= 0 {
		return Rekey
	}
	return Keep
}

// SameBinding reports whether the two bindings are bit-identical — the
// cloned-identity shape, and the self-replay shape the advertiser's round
// counter disambiguates.
func SameBinding(aPK []byte, aRn uint64, bPK []byte, bRn uint64) bool {
	return aRn == bRn && bytes.Equal(aPK, bPK)
}

// bindingDigest is the resolution ordering key: SHA-256 over a
// domain-separation tag, the public key and the big-endian modifier.
func bindingDigest(pk []byte, rn uint64) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{0xad}) // audit-resolution domain tag
	h.Write(pk)
	var rnb [8]byte
	for i := 0; i < 8; i++ {
		rnb[i] = byte(rn >> (56 - 8*i))
	}
	h.Write(rnb[:])
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// BuildAdv constructs a node's periodic re-advertisement for sweep round
// seq under challenge ch.
func BuildAdv(owner *identity.Identity, seq uint32, ch uint64) *wire.AuditAdv {
	return &wire.AuditAdv{
		SIP: owner.Addr,
		Seq: seq,
		Ch:  ch,
		Sig: owner.Sign(wire.SigAuditAdv(owner.Addr, seq, ch)),
		PK:  owner.Pub.Bytes(),
		Rn:  owner.Rn,
	}
}

// BuildObjection constructs the signed conflict objection a binding holder
// raises against a heard advertisement for its own address. rr is the
// advertisement's route record, reversed by the sender for delivery.
func BuildObjection(owner *identity.Identity, contested ipv6.Addr, ch uint64, rr []ipv6.Addr) *wire.AuditObj {
	return &wire.AuditObj{
		SIP: contested,
		RR:  rr,
		Ch:  ch,
		Sig: owner.Sign(wire.SigAuditObj(contested, ch)),
		PK:  owner.Pub.Bytes(),
		Rn:  owner.Rn,
	}
}

// ValidateAdv runs the two-step proof check on a re-advertisement, with
// the signature check through v (nil computes directly): the advertised
// address must equal H(PK, rn) and the signature must verify over
// (SIP, seq, ch) under PK. The ndp
// sentinel errors are reused so attack experiments assert one vocabulary.
func ValidateAdv(v ndp.Verifier, m *wire.AuditAdv, suite identity.Suite) error {
	return validateBinding(v, m.SIP, m.PK, m.Rn, wire.SigAuditAdv(m.SIP, m.Seq, m.Ch), m.Sig, suite)
}

// ValidateObj checks an objection against the challenge ch this node's
// current advertisement carries: CGA binding for the contested address,
// signature over (SIP, ch).
func ValidateObj(v ndp.Verifier, m *wire.AuditObj, suite identity.Suite, ch uint64) error {
	if m.Ch != ch {
		return ndp.ErrWrongAddress
	}
	return validateBinding(v, m.SIP, m.PK, m.Rn, wire.SigAuditObj(m.SIP, ch), m.Sig, suite)
}

func validateBinding(v ndp.Verifier, addr ipv6.Addr, pkBytes []byte, rn uint64, msg, sig []byte, suite identity.Suite) error {
	pk, err := identity.ParsePublicKey(suite, pkBytes)
	if err != nil {
		return fmt.Errorf("%w: %v", ndp.ErrBadKey, err)
	}
	if v == nil {
		v = ndp.DirectVerifier{}
	}
	if !cga.Verify(addr, pkBytes, rn) {
		return ndp.ErrCGABinding
	}
	if !v.VerifySig(pk, msg, sig) {
		return ndp.ErrBadSignature
	}
	return nil
}
