// Package dnssrv implements the MANET's single security anchor: the IPv6
// DNS server of Sections 3.1–3.2. It keeps (domain name, IP) bindings —
// pre-provisioned for permanent servers, first-come-first-served for
// online registrants — piggy-backs name conflicts onto secure DAD via
// signed DREPs, answers lookups with signed responses, and lets an address
// owner re-bind its name to a new CGA address after a challenge/response
// that proves possession of the key behind both addresses.
//
// The server is a transport-agnostic state machine: handlers consume
// decoded messages and return the reply message (or nil); the owning node
// does the routing.
package dnssrv

import (
	"math/rand"
	"time"

	"sbr6/internal/cga"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// Record is one (domain name, IP) binding.
type Record struct {
	Name      string
	IP        ipv6.Addr
	Permanent bool // pre-provisioned before network formation
}

// Config tunes the server.
type Config struct {
	// CommitDelay is how long an online registration stays pending so that
	// warn-AREPs can cancel it (the paper's "keep a copy of the ch ... for
	// a while").
	CommitDelay time.Duration
	// Suite is the signature suite hosts use (needed to parse their keys).
	Suite identity.Suite
}

// DefaultConfig matches the DAD objection window.
func DefaultConfig() Config {
	return Config{CommitDelay: 3 * time.Second, Suite: identity.SuiteEd25519}
}

type pendingReg struct {
	name  string
	sip   ipv6.Addr
	ch    uint64
	timer *sim.Timer
}

// Server is the DNS server state machine.
type Server struct {
	// Verifier, when set by the owning node, routes the server's
	// signature checks through that node's memoized verification cache
	// so their cost lands in the same Stats as every other check. nil
	// computes directly. CGA bindings are checked with cga.Verify.
	Verifier ndp.Verifier

	clock   ndp.Clock
	rng     *rand.Rand
	ident   *identity.Identity // the DNS key pair; Pub is the trust anchor
	cfg     Config
	metrics *trace.Metrics

	names      map[string]Record
	byAddr     map[ipv6.Addr]string
	pending    map[ipv6.Addr]*pendingReg // keyed by registrant address
	challenges map[string]uint64         // outstanding update challenges by name
}

// New creates a server. metrics may be nil.
func New(clock ndp.Clock, rng *rand.Rand, ident *identity.Identity, cfg Config, metrics *trace.Metrics) *Server {
	if cfg.CommitDelay <= 0 {
		cfg.CommitDelay = DefaultConfig().CommitDelay
	}
	if metrics == nil {
		metrics = trace.NewMetrics()
	}
	return &Server{
		clock: clock, rng: rng, ident: ident, cfg: cfg, metrics: metrics,
		names:      make(map[string]Record),
		byAddr:     make(map[ipv6.Addr]string),
		pending:    make(map[ipv6.Addr]*pendingReg),
		challenges: make(map[string]uint64),
	}
}

// PublicKey returns the trust anchor distributed to all hosts.
func (s *Server) PublicKey() identity.PublicKey { return s.ident.Pub }

// Metrics exposes the server's counters.
func (s *Server) Metrics() *trace.Metrics { return s.metrics }

// Preload installs a permanent binding established before network
// formation — the paper's path for hosts that must be impersonation-proof.
// Re-preloading a name replaces its binding.
func (s *Server) Preload(name string, ip ipv6.Addr) {
	if old, ok := s.names[name]; ok {
		delete(s.byAddr, old.IP)
	}
	s.names[name] = Record{Name: name, IP: ip, Permanent: true}
	s.byAddr[ip] = name
	s.metrics.Add1("dns.preloaded")
}

// Lookup resolves a name locally.
func (s *Server) Lookup(name string) (ipv6.Addr, bool) {
	rec, ok := s.names[name]
	return rec.IP, ok
}

// ReverseLookup returns the name bound to an address, if any.
func (s *Server) ReverseLookup(ip ipv6.Addr) (string, bool) {
	name, ok := s.byAddr[ip]
	return name, ok
}

// Names returns the number of committed bindings.
func (s *Server) Names() int { return len(s.names) }

// HandleAREQ processes a flooded address request carrying an optional
// domain-name registration. It returns a signed DREP when the name is
// already bound to a different address, otherwise nil (and, for new names,
// starts the pending-commit window).
func (s *Server) HandleAREQ(m *wire.AREQ) *wire.DREP {
	if m.DN == "" {
		return nil // pure DAD, no name involvement
	}
	s.metrics.Add1("dns.areq")

	if rec, taken := s.names[m.DN]; taken {
		if rec.IP == m.SIP {
			return nil // idempotent re-registration
		}
		return s.buildDREP(m)
	}
	if p, reserved := s.reservedBy(m.DN); reserved {
		if p.sip == m.SIP {
			// Same host re-flooding (e.g. fresh challenge after a retry):
			// keep the newest challenge so warn validation matches.
			p.ch = m.Ch
			return nil
		}
		return s.buildDREP(m) // FCFS: first pending reservation wins
	}

	// New name: reserve it and commit unless a warn-AREP arrives.
	reg := &pendingReg{name: m.DN, sip: m.SIP, ch: m.Ch}
	reg.timer = s.clock.After(s.cfg.CommitDelay, func() {
		delete(s.pending, reg.sip)
		s.names[reg.name] = Record{Name: reg.name, IP: reg.sip}
		s.byAddr[reg.sip] = reg.name
		s.metrics.Add1("dns.registered")
	})
	s.pending[m.SIP] = reg
	return nil
}

func (s *Server) reservedBy(name string) (*pendingReg, bool) {
	//sbr6:commutative at most one pending registration carries a given name (HandleAREQ DREPs later claimants), so the scan has a unique match whatever the order
	for _, p := range s.pending {
		if p.name == name {
			return p, true
		}
	}
	return nil, false
}

func (s *Server) buildDREP(m *wire.AREQ) *wire.DREP {
	s.metrics.Add1("dns.drep")
	return &wire.DREP{
		SIP: m.SIP,
		RR:  m.RR,
		DN:  m.DN,
		Sig: s.ident.Sign(wire.SigDREP(m.DN, m.Ch)),
	}
}

// HandleWarnAREP processes the objection a duplicate-address owner unicasts
// to the DNS so a conflicting registration is not committed. The AREP is
// validated against the pending registration's challenge — the paper's
// "the DNS can verify the AREP with the same checks"; a forged warn cannot
// cancel someone's registration. It reports whether a pending registration
// was cancelled.
func (s *Server) HandleWarnAREP(m *wire.AREP) bool {
	reg, ok := s.pending[m.SIP]
	if !ok {
		return false
	}
	if err := ndp.ValidateAREPVia(s.Verifier, m, s.cfg.Suite, reg.ch); err != nil {
		s.metrics.Add1("dns.warn_rejected")
		return false
	}
	reg.timer.Cancel()
	delete(s.pending, m.SIP)
	s.metrics.Add1("dns.warn_accepted")
	return true
}

// HandleQuery answers a name lookup with a response signed over
// (name, IP, found, ch) so the querier can authenticate it with the
// pre-distributed DNS public key.
func (s *Server) HandleQuery(q *wire.DNSQuery) *wire.DNSAnswer {
	s.metrics.Add1("dns.query")
	ip, found := s.Lookup(q.Name)
	return &wire.DNSAnswer{
		Name:  q.Name,
		IP:    ip,
		Found: found,
		Sig:   s.ident.Sign(wire.SigDNSAnswer(q.Name, ip, found, q.Ch)),
	}
}

// ValidateAnswer is the client-side check of a signed lookup answer.
func ValidateAnswer(m *wire.DNSAnswer, dnsPub identity.PublicKey, ch uint64) bool {
	//sbr6:allow directverify only experiments, examples and tests call this; nodes verify answers through core.Node.verify
	return dnsPub.Verify(wire.SigDNSAnswer(m.Name, m.IP, m.Found, ch), m.Sig)
}

// HandleUpdateReq starts the secure IP-change flow of Section 3.2: the
// server issues a signed random challenge for the name.
func (s *Server) HandleUpdateReq(m *wire.UpdateReq) *wire.UpdateChal {
	if _, ok := s.names[m.Name]; !ok {
		return nil // no such binding; nothing to update
	}
	ch := s.rng.Uint64()
	s.challenges[m.Name] = ch
	s.metrics.Add1("dns.update_challenge")
	return &wire.UpdateChal{Name: m.Name, Ch: ch, Sig: s.ident.Sign(wire.SigUpdateChal(m.Name, ch))}
}

// ValidateUpdateChal is the client-side check of the challenge.
func ValidateUpdateChal(m *wire.UpdateChal, dnsPub identity.PublicKey) bool {
	//sbr6:allow directverify only experiments, examples and tests call this; nodes verify challenges through core.Node.verify
	return dnsPub.Verify(wire.SigUpdateChal(m.Name, m.Ch), m.Sig)
}

// HandleUpdate verifies the signed re-binding: the presenter must prove
// both the old and the new address derive from its key (CGA checks with
// the two modifiers) and must answer the outstanding challenge with a
// signature under that key. On success the binding moves to the new IP.
func (s *Server) HandleUpdate(m *wire.Update) *wire.UpdateResult {
	res, _ := s.HandleUpdateCounted(m)
	return res
}

// HandleUpdateCounted is HandleUpdate, additionally reporting how many
// cryptographic verifications (CGA checks and signature verifications)
// were actually performed — the walk short-circuits on unknown names,
// missing challenges and failed checks, so the count ranges 0..3. The
// owning node feeds it into its crypto.verify accounting.
func (s *Server) HandleUpdateCounted(m *wire.Update) (*wire.UpdateResult, int) {
	verdict, verifies := s.verifyUpdate(m)
	if verdict {
		rec := s.names[m.Name]
		delete(s.byAddr, rec.IP)
		rec.IP = m.NewIP
		s.names[m.Name] = rec
		s.byAddr[m.NewIP] = m.Name
		s.metrics.Add1("dns.update_ok")
	} else {
		s.metrics.Add1("dns.update_rejected")
	}
	ch := s.challenges[m.Name]
	delete(s.challenges, m.Name) // single use either way
	return &wire.UpdateResult{
		Name: m.Name,
		OK:   verdict,
		Ch:   ch,
		Sig:  s.ident.Sign(wire.SigUpdateResult(m.Name, verdict, ch)),
	}, verifies
}

// verifyUpdate reports the verdict plus the number of CGA checks and
// signature verifications it actually ran before deciding. The count
// tracks logical checks — the walk's short-circuit structure — so it is
// identical whether the Verifier memoizes or computes directly.
func (s *Server) verifyUpdate(m *wire.Update) (bool, int) {
	rec, ok := s.names[m.Name]
	if !ok || rec.IP != m.OldIP {
		return false, 0
	}
	ch, ok := s.challenges[m.Name]
	if !ok {
		return false, 0
	}
	pk, err := identity.ParsePublicKey(s.cfg.Suite, m.PK)
	if err != nil {
		return false, 0
	}
	if !cga.Verify(m.OldIP, m.PK, m.Rn) {
		return false, 1
	}
	if !cga.Verify(m.NewIP, m.PK, m.NewRn) {
		return false, 2
	}
	v := s.Verifier
	if v == nil {
		v = ndp.DirectVerifier{}
	}
	return v.VerifySig(pk, wire.SigUpdate(m.OldIP, m.NewIP, ch), m.Sig), 3
}

// ValidateUpdateResult is the client-side check of the verdict.
func ValidateUpdateResult(m *wire.UpdateResult, dnsPub identity.PublicKey, ch uint64) bool {
	if m.Ch != ch {
		return false
	}
	//sbr6:allow directverify only experiments, examples and tests call this; nodes verify results through core.Node.verify
	return dnsPub.Verify(wire.SigUpdateResult(m.Name, m.OK, m.Ch), m.Sig)
}

// BuildUpdate constructs the client side of the re-binding proof for an
// identity that regenerated its address. oldRn/oldIP are the pre-change
// values; the identity already carries the new ones.
func BuildUpdate(ident *identity.Identity, name string, oldIP ipv6.Addr, oldRn uint64, ch uint64) *wire.Update {
	return &wire.Update{
		Name:  name,
		OldIP: oldIP,
		NewIP: ident.Addr,
		Rn:    oldRn,
		NewRn: ident.Rn,
		PK:    ident.Pub.Bytes(),
		Sig:   ident.Sign(wire.SigUpdate(oldIP, ident.Addr, ch)),
	}
}
