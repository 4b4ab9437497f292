// Package ndp implements the paper's secure extended duplicate address
// detection (Section 3.1): the NDP NS/NA messages become network-flooded
// AREQ and source-routed AREP messages, integrated with 6DNAR domain-name
// registration and the CGA challenge/response that makes objections
// unforgeable.
//
// The Initiator type is the requesting host's state machine; the validation
// and construction helpers are shared by responding hosts, the DNS server
// and the tests. Transport is injected: the owning node decides how AREQ
// floods and AREP unicasts actually travel.
package ndp

import (
	"errors"
	"fmt"
	"time"

	"sbr6/internal/cga"
	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// Clock is the slice of the simulator the state machine needs.
type Clock interface {
	Now() sim.Time
	After(d time.Duration, fn func()) *sim.Timer
}

// Validation errors; the attack experiments assert on these.
var (
	ErrBadKey       = errors.New("ndp: public key does not parse")
	ErrCGABinding   = errors.New("ndp: address does not match H(PK, rn)")
	ErrBadSignature = errors.New("ndp: signature verification failed")
	ErrWrongAddress = errors.New("ndp: reply is for a different address")
	ErrNotProbing   = errors.New("ndp: no DAD in progress")
)

// Verifier abstracts the signature check so a node can route it through
// its memoized verification cache (internal/verifycache implements it).
// A nil Verifier means direct computation. CGA bindings are checked
// directly with cga.Verify: one digest and a compare cost less than a
// memo lookup.
type Verifier interface {
	VerifySig(pk identity.PublicKey, msg, sig []byte) bool
}

// DirectVerifier computes the signature check without memoization — the
// fallback behind every nil Verifier, shared with the audit sweep's
// validators.
type DirectVerifier struct{}

// VerifySig implements Verifier.
func (DirectVerifier) VerifySig(pk identity.PublicKey, msg, sig []byte) bool {
	//sbr6:allow directverify the documented direct-computation fallback behind every nil Verifier
	return pk.Verify(msg, sig)
}

// ValidateAREP runs the paper's two checks on an address objection given
// the challenge ch the verifier issued:
//
//  1. the contested address's interface ID must equal H(R_PK, R_rn), and
//  2. the signature must verify over (SIP, ch) under R_PK.
//
// Passing both proves the responder generated the address per the CGA rule
// and owns the corresponding private key.
func ValidateAREP(m *wire.AREP, suite identity.Suite, ch uint64) error {
	return ValidateAREPVia(nil, m, suite, ch)
}

// ValidateAREPVia is ValidateAREP with the signature check performed
// through v (nil falls back to direct computation).
func ValidateAREPVia(v Verifier, m *wire.AREP, suite identity.Suite, ch uint64) error {
	if v == nil {
		v = DirectVerifier{}
	}
	pk, err := identity.ParsePublicKey(suite, m.PK)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadKey, err)
	}
	if !cga.Verify(m.SIP, m.PK, m.Rn) {
		return ErrCGABinding
	}
	if !v.VerifySig(pk, wire.SigAREP(m.SIP, ch), m.Sig) {
		return ErrBadSignature
	}
	return nil
}

// BuildAREP constructs the objection a current address owner sends when it
// sees an AREQ for its own address: proof of CGA binding plus the signed
// challenge response. rr is the route record from the AREQ, reversed by the
// caller for delivery.
func BuildAREP(owner *identity.Identity, contested ipv6.Addr, ch uint64, rr []ipv6.Addr) *wire.AREP {
	return &wire.AREP{
		SIP: contested,
		RR:  rr,
		Sig: owner.Sign(wire.SigAREP(contested, ch)),
		PK:  owner.Pub.Bytes(),
		Rn:  owner.Rn,
	}
}

// ValidateDREP checks a domain-name objection: the signature must verify
// over (DN, ch) under the DNS server's public key — the one piece of
// pre-configured trust every host carries.
func ValidateDREP(m *wire.DREP, dnsPub identity.PublicKey, dn string, ch uint64) error {
	return ValidateDREPVia(nil, m, dnsPub, dn, ch)
}

// ValidateDREPVia is ValidateDREP with the signature check performed
// through v (nil falls back to direct computation).
func ValidateDREPVia(v Verifier, m *wire.DREP, dnsPub identity.PublicKey, dn string, ch uint64) error {
	if v == nil {
		v = DirectVerifier{}
	}
	if m.DN != dn {
		return ErrWrongAddress
	}
	if !v.VerifySig(dnsPub, wire.SigDREP(dn, ch), m.Sig) {
		return ErrBadSignature
	}
	return nil
}

// State enumerates the initiator's lifecycle.
type State int

// Initiator states.
const (
	StateIdle State = iota
	StateProbing
	StateConfigured
	StateFailed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateProbing:
		return "probing"
	case StateConfigured:
		return "configured"
	case StateFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// Config tunes the DAD procedure.
type Config struct {
	// Timeout is how long the host waits for AREP/DREP objections before
	// declaring its address (and name) unique.
	Timeout time.Duration
	// MaxRetries bounds address/name regeneration attempts.
	MaxRetries int
}

// DefaultConfig uses a 3-second objection window, enough for several flood
// round trips across our scenario diameters.
func DefaultConfig() Config {
	return Config{Timeout: 3 * time.Second, MaxRetries: 8}
}

// ObjectionWindow returns the effective AREP/DREP wait — Timeout with the
// default applied, exactly what NewInitiator will arm. Admission policies
// use it to keep conflicting DAD starts at least one window apart.
func (c Config) ObjectionWindow() time.Duration {
	if c.Timeout <= 0 {
		return DefaultConfig().Timeout
	}
	return c.Timeout
}

// Initiator drives secure DAD for one host.
type Initiator struct {
	clock  Clock
	src    *draw.Source
	ident  *identity.Identity
	dnsPub identity.PublicKey
	cfg    Config

	// SendAREQ floods the request; the node wires it to the radio.
	SendAREQ func(m *wire.AREQ)
	// Verify, when non-nil, routes the objection checks through a
	// (possibly memoized) verifier; the owning node wires its
	// verification cache here.
	Verify Verifier
	// OnConfigured fires when DAD succeeds.
	OnConfigured func()
	// OnFailed fires when retries are exhausted.
	OnFailed func(reason string)
	// Rename picks a replacement domain name after a DREP conflict.
	// Returning "" gives up on name registration but keeps the address.
	Rename func(old string) string

	state    State
	seq      uint32
	ch       uint64
	retries  int
	timer    *sim.Timer
	started  sim.Time
	Duration time.Duration // DAD latency once configured
}

// NewInitiator builds an initiator for the identity. dnsPub may be nil when
// the host does not register a name (DREPs are then ignored).
func NewInitiator(clock Clock, src *draw.Source, ident *identity.Identity, dnsPub identity.PublicKey, cfg Config) *Initiator {
	cfg.Timeout = cfg.ObjectionWindow() // the one shared default clamp
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultConfig().MaxRetries
	}
	return &Initiator{clock: clock, src: src, ident: ident, dnsPub: dnsPub, cfg: cfg, state: StateIdle}
}

// State returns the current lifecycle state.
func (i *Initiator) State() State { return i.state }

// Challenge returns the challenge of the in-flight AREQ (tests and the DNS
// warn path need it).
func (i *Initiator) Challenge() uint64 { return i.ch }

// Start begins (or restarts) duplicate address detection. Starting over
// from StateConfigured — the audit sweep's rekey path, after the identity
// drew a fresh modifier — opens a new DAD cycle: the latency clock and the
// retry budget reset as if the host had just joined.
func (i *Initiator) Start() {
	if i.SendAREQ == nil {
		panic("ndp: Initiator.SendAREQ not wired")
	}
	if i.state == StateIdle || i.state == StateConfigured {
		i.started = i.clock.Now()
		i.retries = 0
	}
	i.state = StateProbing
	i.seq++
	i.ch = i.src.Uint64()
	if i.timer != nil {
		i.timer.Cancel()
	}
	i.timer = i.clock.After(i.cfg.Timeout, i.succeed)
	i.SendAREQ(&wire.AREQ{SIP: i.ident.Addr, Seq: i.seq, DN: i.ident.Name, Ch: i.ch})
}

// Stop abandons any DAD in progress and disarms the objection-window
// timer, returning the state machine to StateIdle. A node leaving a
// running simulation calls it so no success/retry callback fires after
// the node's state has been reclaimed.
func (i *Initiator) Stop() {
	if i.timer != nil {
		i.timer.Cancel()
		i.timer = nil
	}
	i.state = StateIdle
}

func (i *Initiator) succeed() {
	i.state = StateConfigured
	i.Duration = i.clock.Now().Sub(i.started)
	if i.OnConfigured != nil {
		i.OnConfigured()
	}
}

func (i *Initiator) retry(reason string) {
	i.retries++
	if i.retries > i.cfg.MaxRetries {
		i.state = StateFailed
		if i.timer != nil {
			i.timer.Cancel()
		}
		if i.OnFailed != nil {
			i.OnFailed(reason)
		}
		return
	}
	i.Start()
}

// HandleAREP processes an address objection. A nil return means the
// objection was authentic and the host has restarted DAD under a fresh
// address; any error means the message was ignored (and why).
func (i *Initiator) HandleAREP(m *wire.AREP) error {
	if i.state != StateProbing {
		return ErrNotProbing
	}
	if m.SIP != i.ident.Addr {
		return ErrWrongAddress
	}
	if err := ValidateAREPVia(i.Verify, m, i.ident.Pub.Suite(), i.ch); err != nil {
		return err
	}
	// Authentic duplicate: derive a fresh address, keep the key pair.
	i.ident.Regenerate(i.src)
	i.retry("duplicate address")
	return nil
}

// HandleDREP processes a domain-name objection from the DNS server. On an
// authentic conflict the host picks a new name via Rename and restarts DAD.
func (i *Initiator) HandleDREP(m *wire.DREP) error {
	if i.state != StateProbing {
		return ErrNotProbing
	}
	if i.dnsPub == nil || i.ident.Name == "" {
		return ErrWrongAddress
	}
	if err := ValidateDREPVia(i.Verify, m, i.dnsPub, i.ident.Name, i.ch); err != nil {
		return err
	}
	if i.Rename != nil {
		i.ident.Name = i.Rename(i.ident.Name)
	} else {
		i.ident.Name = ""
	}
	i.retry("duplicate domain name")
	return nil
}
