// Package core implements the paper's contribution: a MANET node stack that
// bootstraps securely (CGA address autoconfiguration with extended DAD and
// 6DNAR registration, Section 3.1), offers secure DNS services (Section
// 3.2), discovers routes with per-hop identity attestations derived from
// DSR (Section 3.3), and maintains routes with signed RERRs, credit
// management and black-hole probing (Section 3.4).
//
// The same Node runs the insecure DSR baseline when Config.Secure is false:
// signature fields stay empty and no verification happens, which is exactly
// the comparison surface the attack experiments measure.
package core

import (
	"hash/fnv"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/credit"
	"sbr6/internal/dnssrv"
	"sbr6/internal/draw"
	"sbr6/internal/dsr"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
	"sbr6/internal/verifycache"
	"sbr6/internal/wire"
)

// Config selects protocol variant and timing.
type Config struct {
	// Secure enables the paper's protocol; false runs plain DSR.
	Secure bool
	// UseCredits enables the credit mechanism of Section 3.4.
	UseCredits bool
	// UseCache lets intermediates answer RREQs with CREPs and sources
	// reuse cached routes.
	UseCache bool
	// ProbeOnLoss enables black-hole probing after repeated silent losses.
	ProbeOnLoss bool
	// Salvage lets a relay that hits a broken link re-route in-flight data
	// over its own cached route (DSR packet salvaging) instead of just
	// reporting the error.
	Salvage bool
	// MaxSalvage bounds how often one packet may be salvaged.
	MaxSalvage uint8

	// DirectVerify computes every signature check and signature directly
	// instead of through the node's verification cache
	// (internal/verifycache). Runs with and without the cache produce
	// byte-for-byte identical results — the cache only avoids recomputing
	// checks and deterministic signatures whose full input was seen
	// before — so only tests and the scale benchmark's baseline set it,
	// and snapshots do not carry it.
	DirectVerify bool `json:"-"`
	// FloodCache bounds each per-node duplicate-flood suppression set
	// (AREQ, RREQ and DNS-control floods). 0 selects 4096 entries —
	// enough below ~1000 nodes; the scenario harness scales it with the
	// network so 10k-node DAD floods are deduplicated instead of being
	// re-processed when the seen-set thrashes.
	FloodCache int

	// Audit configures the post-formation address audit sweep
	// (internal/audit): periodic signed re-advertisement of the CGA
	// binding with deterministic conflict resolution. The zero value
	// disables it — no events, no randomness, byte-identical runs.
	Audit audit.Config

	Suite  identity.Suite
	DAD    ndp.Config
	Credit credit.Config

	RouteTTL         time.Duration // cache entry lifetime
	DiscoveryTimeout time.Duration // per-attempt RREQ wait
	DiscoveryRetries int
	AckTimeout       time.Duration // end-to-end ack wait before counting a loss
	ResolveTimeout   time.Duration // DNS query wait
	TTL              uint8         // flood / forwarding hop limit

	// LossStreak is how many consecutive unacknowledged packets to one
	// destination trigger a probe of the route.
	LossStreak int
	// RERRWindow and RERRThreshold flag a host reporting more than
	// RERRThreshold route errors within RERRWindow as a suspected spammer.
	RERRWindow    time.Duration
	RERRThreshold int
}

// DefaultConfig returns the secure protocol with every defense enabled.
func DefaultConfig() Config {
	return Config{
		Secure:           true,
		UseCredits:       true,
		UseCache:         true,
		ProbeOnLoss:      true,
		Salvage:          true,
		MaxSalvage:       1,
		Suite:            identity.SuiteEd25519,
		DAD:              ndp.DefaultConfig(),
		Credit:           credit.DefaultConfig(),
		RouteTTL:         30 * time.Second,
		DiscoveryTimeout: 2 * time.Second,
		DiscoveryRetries: 2,
		AckTimeout:       1500 * time.Millisecond,
		ResolveTimeout:   4 * time.Second,
		TTL:              32,
		LossStreak:       2,
		RERRWindow:       30 * time.Second,
		RERRThreshold:    4,
	}
}

// BaselineConfig returns plain DSR with no defenses, the comparison point.
func BaselineConfig() Config {
	cfg := DefaultConfig()
	cfg.Secure = false
	cfg.UseCredits = false
	cfg.ProbeOnLoss = false
	return cfg
}

// Behavior lets the attack package hook a node's pipeline. A nil Behavior
// is an honest node.
type Behavior interface {
	// Intercept sees every received packet before normal processing and
	// may consume it by returning true. A packet it lets through is
	// relayed from the received bytes raw, not re-encoded from pkt, so
	// edits Intercept makes to pkt never reach the relayed frame: a
	// behavior that wants a different relay consumes the frame and
	// transmits its own.
	Intercept(n *Node, pkt *wire.Packet, raw []byte) bool
	// DropForward reports whether to silently drop a unicast this node was
	// asked to relay (the black-hole primitive).
	DropForward(n *Node, pkt *wire.Packet) bool
}

// Node is one MANET host.
type Node struct {
	region *Region
	sim    *sim.Simulator // the region's
	medium *radio.Medium  // the region's
	link   radio.NodeID
	ident  *identity.Identity
	dnsPub identity.PublicKey
	cfg    Config
	src    *draw.Source // the node's protocol stream
	met    *trace.Metrics

	dns *dnssrv.Server // non-nil only on the DNS node

	// enc amortizes the codec's scratch state across this node's
	// transmissions (see wire.Encoder); single-threaded like the node.
	enc wire.Encoder

	autoconf   *ndp.Initiator
	configured bool
	dead       bool // Shutdown ran: every entry point and transmit path is inert

	neighbors map[ipv6.Addr]radio.NodeID

	// The flood seen-sets are views of the region's flood table, where
	// floods is the node's slot.
	floods    *ndp.Member
	areqSeen  *ndp.FloodCache
	rreqSeen  *ndp.FloodCache
	dnsFloods *ndp.FloodCache // content-hash dedup for flood-routed DNS control
	auditSeen *ndp.FloodCache // audit re-advertisement flood dedup

	// Audit sweep state: the current sweep round and the challenge the
	// in-flight advertisement carries (0 = none outstanding).
	auditSeq uint32
	auditCh  uint64
	// auditRebind, when non-nil, carries a registered name (and the proof
	// material of the abandoned binding) across an audit rekey's DAD
	// re-run: the name is restored and re-bound through the signed update
	// protocol once the fresh address survives its objection window.
	auditRebind *pendingRebind

	// vcache memoizes signature checks and the node's own signatures
	// (nil under DirectVerify; every helper is nil-safe and computes
	// directly).
	vcache *verifycache.Cache

	routes  *dsr.Cache
	credits *credit.Table
	rreqSeq uint32

	pending     map[ipv6.Addr]*discovery
	outstanding map[ackKey]*sentData
	lossStreak  map[ipv6.Addr]int
	probes      map[ipv6.Addr]*probeState
	rerrTimes   map[ipv6.Addr][]sim.Time

	resolves map[string]*resolveState
	rebind   *rebindState
	// aliases maps an anycast address (the DNS discovery addresses) to the
	// real, CGA-verifiable address learned from the RREP that answered a
	// discovery for the alias.
	aliases map[ipv6.Addr]ipv6.Addr

	nextFlow uint32
	dataSeq  uint32

	// Behavior, when non-nil, makes the node adversarial.
	Behavior Behavior
	// OnData is invoked for every application payload delivered to this
	// node as the final destination.
	OnData func(src ipv6.Addr, d *wire.Data)
	// OnConfigured is invoked once secure DAD completes.
	OnConfigured func()
}

type ackKey struct {
	flow uint32
	seq  uint32
}

type sentData struct {
	dst    ipv6.Addr
	relays []ipv6.Addr
	timer  *sim.Timer

	// probe links a probe packet back to the probe that sent it, so its
	// acknowledgement marks exactly that probe's target as answered.
	// Resolving the probe through the flow id instead would be ambiguous:
	// probe flow ids can repeat across probes, and picking a winner by
	// iterating the probes map made runs nondeterministic.
	probe    *probeState
	probeIdx int
}

type discovery struct {
	seq     uint32
	retries int
	timer   *sim.Timer
	waiters []func(route dsr.Route, ok bool)
}

type probeState struct {
	relays []ipv6.Addr
	acked  []bool
}

type resolveState struct {
	ch    uint64
	timer *sim.Timer
	cb    func(ipv6.Addr, bool)
}

type rebindState struct {
	oldIP ipv6.Addr
	oldRn uint64
	ch    uint64
	// pre marks a rebind whose address change already happened (the audit
	// rekey path): the old binding above was recorded up front and the
	// challenge step must NOT regenerate again.
	pre     bool
	chTaken bool
	timer   *sim.Timer
	cb      func(ok bool)
}

// pendingRebind is a name registration waiting out an audit rekey's DAD
// re-run, plus the abandoned binding the update proof needs.
type pendingRebind struct {
	name  string
	oldIP ipv6.Addr
	oldRn uint64
}

// The seen-set kinds of a region's flood table.
const (
	floodAREQ ndp.Kind = iota + 1
	floodRREQ
	floodDNS
	floodAudit
)

// New creates a node in region r. The caller attaches it to the region's
// medium (the scenario owns positions):
// medium.AddNode(link, track.Position, track.SpeedBound(), node).
func New(r *Region, link radio.NodeID, ident *identity.Identity,
	dnsPub identity.PublicKey, cfg Config, src *draw.Source, met *trace.Metrics) *Node {
	if met == nil {
		met = trace.NewMetrics()
	}
	if cfg.TTL == 0 {
		cfg.TTL = 32
	}
	floodCap := cfg.FloodCache
	if floodCap <= 0 {
		floodCap = 4096
	}
	var vc *verifycache.Cache
	if !cfg.DirectVerify {
		vc = verifycache.New(verifycache.DefaultEntries)
	}
	floods := r.floods.Join()
	n := &Node{
		region: r, sim: r.sim, medium: r.medium, link: link, ident: ident, dnsPub: dnsPub,
		cfg: cfg, src: src, met: met, vcache: vc,
		neighbors:   make(map[ipv6.Addr]radio.NodeID),
		floods:      floods,
		areqSeen:    floods.Cache(floodAREQ, floodCap),
		rreqSeen:    floods.Cache(floodRREQ, floodCap),
		dnsFloods:   floods.Cache(floodDNS, floodCap),
		auditSeen:   floods.Cache(floodAudit, floodCap),
		routes:      dsr.NewCache(ident.Addr, sim.Duration(cfg.RouteTTL), 3),
		credits:     credit.New(cfg.Credit),
		pending:     make(map[ipv6.Addr]*discovery),
		outstanding: make(map[ackKey]*sentData),
		lossStreak:  make(map[ipv6.Addr]int),
		probes:      make(map[ipv6.Addr]*probeState),
		rerrTimes:   make(map[ipv6.Addr][]sim.Time),
		resolves:    make(map[string]*resolveState),
		aliases:     make(map[ipv6.Addr]ipv6.Addr),
	}
	n.autoconf = ndp.NewInitiator(r.sim, src, ident, dnsPub, cfg.DAD)
	n.autoconf.Verify = n.verifier()
	n.autoconf.SendAREQ = n.sendAREQ
	n.autoconf.OnConfigured = n.dadDone
	n.autoconf.Rename = func(old string) string { return old + "-r" }
	return n
}

// AttachDNS makes this node the MANET's DNS server; it then also owns the
// well-known anycast address ipv6.DNS1. The server's signature checks
// route through this node's memoized verifier so their cost lands in the
// same Stats as every other check the node performs.
func (n *Node) AttachDNS(srv *dnssrv.Server) {
	n.dns = srv
	srv.Verifier = n.verifier()
}

// Accessors used by scenarios, examples and the attack package.

// Addr returns the node's current (possibly tentative) address.
func (n *Node) Addr() ipv6.Addr { return n.ident.Addr }

// Name returns the node's domain name ("" when none).
func (n *Node) Name() string { return n.ident.Name }

// Identity exposes the node's cryptographic identity.
func (n *Node) Identity() *identity.Identity { return n.ident }

// Configured reports whether secure DAD has completed.
func (n *Node) Configured() bool { return n.configured }

// Metrics returns the node's counters.
func (n *Node) Metrics() *trace.Metrics { return n.met }

// Credits returns the node's credit table.
func (n *Node) Credits() *credit.Table { return n.credits }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Sim returns the simulator driving the node.
func (n *Node) Sim() *sim.Simulator { return n.sim }

// Rand returns the node's protocol draw source.
func (n *Node) Rand() *draw.Source { return n.src }

// DNS returns the attached DNS server, or nil.
func (n *Node) DNS() *dnssrv.Server { return n.dns }

// LinkID returns the node's radio identifier.
func (n *Node) LinkID() radio.NodeID { return n.link }

// RouteTo reports the relays of the best cached route to dst.
func (n *Node) RouteTo(dst ipv6.Addr) ([]ipv6.Addr, bool) {
	r, ok := n.routes.Best(dst, n.sim.Now(), n.routeScore())
	if !ok {
		return nil, false
	}
	return r.Relays, true
}

// Start begins the node's life: secure duplicate address detection, then —
// once configured — normal operation.
func (n *Node) Start() {
	if n.dead {
		return
	}
	n.autoconf.Start()
}

// Shutdown removes the node from the simulation for good: every pending
// timer it armed is cancelled (releasing the captured closures), DAD is
// stopped, and a dead flag makes every entry point — radio delivery,
// application sends, resolves, audit advertisements — and every transmit
// path inert, so callbacks still referenced by in-flight events (a
// unicast ACK outcome, an untracked probe conclusion) fire harmlessly.
// The caller detaches the node from the medium afterwards
// (radio.Medium.RemoveNode); under the sharded engine both happen at a
// barrier while the owning region is quiescent. Shutdown is idempotent
// and there is no restart: a returning host joins as a fresh identity,
// exactly like the paper's model of departure.
func (n *Node) Shutdown() {
	if n.dead {
		return
	}
	n.dead = true
	n.configured = false
	n.autoconf.Stop()
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, d := range n.pending {
		if d.timer != nil {
			d.timer.Cancel()
		}
	}
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, sd := range n.outstanding {
		if sd.timer != nil {
			sd.timer.Cancel()
		}
	}
	//sbr6:commutative Timer.Cancel removal order cannot reorder surviving events: the heap pops by the total (at, owner, seq) key
	for _, st := range n.resolves {
		if st.timer != nil {
			st.timer.Cancel()
		}
	}
	if n.rebind != nil {
		if n.rebind.timer != nil {
			n.rebind.timer.Cancel()
		}
		n.rebind = nil
	}
	// Drop per-peer state, and release the node's marks in the region's
	// flood table and its slot there to the next joiner. The node itself
	// stays reachable through the scenario's node list, and with it its
	// metrics, identity, verification cache, route cache and credit table.
	// Untracked events that survive (finishProbe) look their state up by
	// key and no-op on the emptied maps; every path that reads a seen-set
	// is inert once dead.
	n.neighbors = make(map[ipv6.Addr]radio.NodeID)
	n.pending = make(map[ipv6.Addr]*discovery)
	n.outstanding = make(map[ackKey]*sentData)
	n.lossStreak = make(map[ipv6.Addr]int)
	n.probes = make(map[ipv6.Addr]*probeState)
	n.rerrTimes = make(map[ipv6.Addr][]sim.Time)
	n.resolves = make(map[string]*resolveState)
	n.aliases = make(map[ipv6.Addr]ipv6.Addr)
	n.auditRebind = nil
	n.floods.Release()
	n.areqSeen, n.rreqSeen, n.dnsFloods, n.auditSeen = nil, nil, nil, nil
}

// Dead reports whether Shutdown has run.
func (n *Node) Dead() bool { return n.dead }

// StartConfigured skips DAD (scripted experiments that pre-assign
// identities use this).
func (n *Node) StartConfigured() {
	n.configured = true
	n.routes.SetOwner(n.ident.Addr)
}

// DADState exposes the autoconfiguration state for tests and reports.
func (n *Node) DADState() ndp.State { return n.autoconf.State() }

// DADLatency reports how long DAD took once configured.
func (n *Node) DADLatency() time.Duration { return n.autoconf.Duration }

func (n *Node) dadDone() {
	n.configured = true
	n.routes.SetOwner(n.ident.Addr)
	n.met.Observe("dad.latency_s", n.autoconf.Duration.Seconds())
	if r := n.auditRebind; r != nil {
		// The audit rekey parked this registration: the fresh address
		// stands, so restore the name and move its DNS binding over through
		// the signed update protocol, proving ownership of both CGAs.
		n.auditRebind = nil
		n.ident.Name = r.name
		n.rebindNameFrom(r.oldIP, r.oldRn)
	}
	if n.OnConfigured != nil {
		n.OnConfigured()
	}
}

func (n *Node) ownsAddr(a ipv6.Addr) bool {
	if a == n.ident.Addr {
		return true
	}
	return n.dns != nil && (a == ipv6.DNS1 || a == ipv6.DNS2 || a == ipv6.DNS3)
}

// sign counts one logical signature and makes it through the memo cache
// when enabled: hop attestations and the RREQ-source, RREP, CREP and RERR
// signatures repeat byte for byte, and a repeat reuses the signature
// already made. Like crypto.verify, the counter tracks signing requests,
// not primitive operations, so runs with and without the cache stay
// byte-for-byte identical; the cache's Stats record the primitives.
func (n *Node) sign(msg []byte) []byte {
	n.met.Add1(trace.CryptoSign)
	return n.vcache.Sign(n.ident.Priv, msg)
}

// verify counts one logical signature verification and performs it through
// the memo cache when enabled. The counter tracks verification *requests*,
// not primitive operations, so cached and uncached runs stay byte-for-byte
// identical; the cache's own Stats record how many primitives were avoided.
// The node's CGA checks call cga.Verify directly and count toward no
// metric: crypto.verify follows the paper's signature-operation
// accounting. The one exception is the DNS server's update handler
// (handleUpdate), which adds the CGA checks dnssrv reports to the count.
func (n *Node) verify(pk identity.PublicKey, msg, sig []byte) bool {
	n.met.Add1(trace.CryptoVerify)
	return n.vcache.VerifySig(pk, msg, sig)
}

// VerifyCacheStats exposes the memo cache's traffic counters (zero when
// the cache is disabled). The benchmarks and the differential suite use
// it to prove the primitive-operation count actually drops.
func (n *Node) VerifyCacheStats() verifycache.Stats { return n.vcache.Stats() }

// VerifyRouteRecord runs the Section 3.3 route-record verification on m,
// exactly as the destination and CREP-serving intermediates do. Exported
// for the scale benchmarks and property tests.
func (n *Node) VerifyRouteRecord(m *wire.RREQ) error { return n.verifySRR(m) }

// --- Receive path ---

// Deliver implements radio.Handler. Every frame is scanned — validated
// without allocating — counted, and its transmitter recorded; a frame
// that passes the admission step is dispatched to its handler, which
// decodes it only if it needs more than the envelope. A relay that only
// forwards never decodes: it splices the received bytes. Adversarial
// nodes decode every frame first, because Intercept sees them all. The
// receivers of one delivery event share its scan (see Region); a frame
// handed to Deliver outside one is scanned for this call alone.
func (n *Node) Deliver(from radio.NodeID, payload []byte) {
	if n.dead {
		return
	}
	if sc := n.region.shared(payload); sc != nil {
		n.receive(from, payload, sc)
		return
	}
	var own rxScan
	own.read(payload)
	n.receive(from, payload, &own)
}

// receive is Deliver's per-receiver work on a scanned frame.
func (n *Node) receive(from radio.NodeID, payload []byte, sc *rxScan) {
	if sc.bad {
		n.met.Add1(trace.RxMalformed)
		return
	}
	n.met.Add1(trace.RxFrames)
	if sc.hasPrev {
		if id, ok := n.neighbors[sc.prev]; !ok || id != from {
			n.neighbors[sc.prev] = from
		}
	}
	var pkt *wire.Packet
	if n.Behavior != nil {
		if pkt = decode(payload); n.Behavior.Intercept(n, pkt, payload) {
			return
		}
	}
	if !n.admit(sc) {
		return
	}
	n.dispatch(&frame{env: sc.env, raw: payload, pkt: pkt})
}

// frame is one admitted frame on its way to a handler: the envelope Scan
// read, the bytes (borrowed for the Deliver call, see radio.Handler) and
// the decoded packet, nil until something needs more than the envelope.
// It is this receiver's own: the receivers of a delivery share the scan,
// but each decodes into its own packet.
type frame struct {
	env wire.Envelope
	raw []byte
	pkt *wire.Packet
}

// packet returns the decoded packet, decoding the frame on first use.
func (f *frame) packet() *wire.Packet {
	if f.pkt == nil {
		f.pkt = decode(f.raw)
	}
	return f.pkt
}

// decode decodes a frame Scan already accepted. Scan and Decode accept
// exactly the same inputs (FuzzScanMatchesDecode holds them there), so a
// failure here is a codec bug, not hostile input.
func decode(payload []byte) *wire.Packet {
	pkt, err := wire.Decode(payload)
	if err != nil {
		panic("core: wire.Decode rejected a frame wire.Scan accepted: " + err.Error())
	}
	return pkt
}

// admit is the receive path's admission step: the duplicate and
// not-for-me checks, run on the envelope so a frame no handler will act
// on is never decoded. Floods are admitted once per flood identity
// (marking it seen); route requests only once configured and never our
// own; source-routed packets only at their current hop or destination.
func (n *Node) admit(sc *rxScan) bool {
	e := &sc.env
	switch {
	case e.Dst == ipv6.DNS1 && e.RouteLen == 0:
		return !n.dnsFloods.SeenID(&sc.flood)
	case e.Type == wire.TAREQ:
		return !n.areqSeen.SeenID(&sc.flood)
	case e.Type == wire.TRREQ:
		return n.configured && e.SIP != n.ident.Addr && !n.rreqSeen.SeenID(&sc.flood)
	case e.Type == wire.TAuditAdv:
		return !n.auditSeen.SeenID(&sc.flood)
	case int(e.Hop) < e.RouteLen:
		return e.Next == n.ident.Addr
	default:
		return n.ownsAddr(e.Dst)
	}
}

// dispatch hands an admitted frame to its handler; the cases mirror
// admit's. The flood handlers and the DNS-control relay decode only when
// they act on more than the envelope; source-routed forwards decode,
// because their link-failure path (RERR, salvage) reads the packet.
func (n *Node) dispatch(f *frame) {
	e := &f.env
	switch {
	case e.Dst == ipv6.DNS1 && e.RouteLen == 0:
		// Flood-routed DNS control (warn-AREPs before routes exist).
		n.handleDNSFlood(f)
	case e.Type == wire.TAREQ:
		n.handleAREQ(f)
	case e.Type == wire.TRREQ:
		n.handleRREQ(f)
	case e.Type == wire.TAuditAdv:
		n.handleAuditAdv(f)
	case int(e.Hop) < e.RouteLen:
		n.forwardUnicast(f)
	default:
		n.consume(f.packet())
	}
}

// transmitter infers the link-layer transmitter's IP address from a
// frame's envelope, standing in for NDP link-layer address resolution:
// flooded requests name the transmitter as the last route-record entry (or
// the origin), source-routed packets as the hop before the current index.
func transmitter(e *wire.Envelope) (ipv6.Addr, bool) {
	switch e.Type {
	case wire.TAREQ, wire.TRREQ, wire.TAuditAdv:
		if e.RecordLen > 0 {
			return e.Last, true
		}
		return e.Src, true
	default:
		if e.Hop == 0 {
			return e.Src, true
		}
		if int(e.Hop) <= e.RouteLen {
			return e.Prev, true
		}
		return ipv6.Addr{}, false
	}
}

func (n *Node) consume(pkt *wire.Packet) {
	switch m := pkt.Msg.(type) {
	case *wire.AREP:
		n.handleAREP(pkt, m)
	case *wire.DREP:
		n.handleDREP(pkt, m)
	case *wire.AuditObj:
		n.handleAuditObj(pkt, m)
	case *wire.RREP:
		n.handleRREP(pkt, m)
	case *wire.CREP:
		n.handleCREP(pkt, m)
	case *wire.RERR:
		n.handleRERR(pkt, m)
	case *wire.Data:
		n.handleData(pkt, m)
	case *wire.Ack:
		n.handleAck(pkt, m)
	case *wire.DNSQuery:
		n.handleDNSQuery(pkt, m)
	case *wire.DNSAnswer:
		n.handleDNSAnswer(pkt, m)
	case *wire.UpdateReq:
		n.handleUpdateReq(pkt, m)
	case *wire.UpdateChal:
		n.handleUpdateChal(pkt, m)
	case *wire.Update:
		n.handleUpdate(pkt, m)
	case *wire.UpdateResult:
		n.handleUpdateResult(pkt, m)
	default:
		n.met.Add1(trace.RxUnhandled)
	}
}

// --- Transmit primitives ---

// txCounters gives each message type its transmission counter
// (tx.AREQ, tx.DATA, ...).
//
//sbr6:allow globalstate counter table written once at init and read-only after
var txCounters = [...]trace.Counter{
	wire.TAREQ:         trace.TxAREQ,
	wire.TAREP:         trace.TxAREP,
	wire.TDREP:         trace.TxDREP,
	wire.TRREQ:         trace.TxRREQ,
	wire.TRREP:         trace.TxRREP,
	wire.TCREP:         trace.TxCREP,
	wire.TRERR:         trace.TxRERR,
	wire.TData:         trace.TxDATA,
	wire.TAck:          trace.TxACK,
	wire.TDNSQuery:     trace.TxDNSQ,
	wire.TDNSAnswer:    trace.TxDNSA,
	wire.TUpdateReq:    trace.TxUPDQ,
	wire.TUpdateChal:   trace.TxCHAL,
	wire.TUpdate:       trace.TxUPD,
	wire.TUpdateResult: trace.TxUPDR,
	wire.TAuditAdv:     trace.TxAADV,
	wire.TAuditObj:     trace.TxAOBJ,
}

// account counts one transmitted frame of message type t and size bytes.
func (n *Node) account(t wire.Type, size int) {
	n.met.Add1(txCounters[t])
	if t == wire.TData {
		n.met.Inc(trace.TxBytesData, float64(size))
	} else {
		n.met.Inc(trace.TxBytesControl, float64(size))
	}
	n.met.Inc(trace.TxBytesTotal, float64(size))
}

// encodeFrame serializes pkt into a frame checked out of the medium's
// pool — sized exactly via the counting EncodedSize, so the append never
// grows the buffer — and accounts the transmitted bytes. The caller owns
// the returned frame and must hand it to BroadcastFrame/UnicastFrame or
// return it with ReleaseFrame on every non-transmitting path.
func (n *Node) encodeFrame(pkt *wire.Packet) []byte {
	raw := n.enc.AppendEncode(n.medium.Frame(n.enc.Size(pkt)), pkt)
	n.account(pkt.Msg.Type(), len(raw))
	return raw
}

// spliceFrame builds the frame this node relays in place of the received
// frame f, spliced from its bytes into a pooled frame by wire.AppendSplice:
// a flooded request rebroadcast with entry appended to its route record,
// or — entry nil — the frame with its TTL (and, source-routed, its hop
// index) advanced. It accounts the frame like encodeFrame, under the same
// ownership rule.
func (n *Node) spliceFrame(f *frame, entry *wire.HopAttestation) []byte {
	raw := wire.AppendSplice(n.medium.Frame(wire.SplicedSize(f.raw, &f.env, entry)), f.raw, &f.env, entry)
	n.account(f.env.Type, len(raw))
	return raw
}

// RawBroadcast transmits pre-encoded bytes unmodified; the replay attacker
// uses it to retransmit captured frames. The bytes count toward
// tx.bytes.total like any other transmission and are additionally broken
// out as tx.bytes.raw, preserving the accounting invariant
// total == control + data + raw. The frame stays caller-owned (attackers
// replay the same capture repeatedly), so it is never pooled.
func (n *Node) RawBroadcast(raw []byte) {
	if n.dead {
		return
	}
	n.met.Inc(trace.TxBytesTotal, float64(len(raw)))
	n.met.Inc(trace.TxBytesRaw, float64(len(raw)))
	n.met.Add1(trace.TxRaw)
	n.medium.Broadcast(n.link, raw)
}

// Flood broadcasts msg network-wide from this node.
func (n *Node) Flood(msg wire.Message, ttl uint8) {
	if n.dead {
		return
	}
	n.medium.BroadcastFrame(n.link, n.encodeFrame(&wire.Packet{Src: n.ident.Addr, Dst: ipv6.AllNodes, TTL: ttl, Msg: msg}))
}

// SendAlong source-routes msg to dst via the given relays.
func (n *Node) SendAlong(relays []ipv6.Addr, dst ipv6.Addr, msg wire.Message) {
	pkt := &wire.Packet{Src: n.ident.Addr, Dst: dst, TTL: n.cfg.TTL, SrcRoute: relays, Msg: msg}
	n.sendSourceRouted(pkt, nil)
}

// lastHopBroadcast reports whether the final hop toward dst must be
// broadcast because the destination may not hold a usable address yet
// (the paper's footnote on AREP delivery; DREPs share the constraint).
// Audit objections share it for a different reason: the destination address
// is by definition held by two nodes, so a neighbour-table unicast could
// deliver the objection to the objector's own side of the conflict.
func lastHopBroadcast(msg wire.Message) bool {
	switch msg.(type) {
	case *wire.AREP, *wire.DREP, *wire.AuditObj:
		return true
	default:
		return false
	}
}

// sendSourceRouted transmits pkt toward its next hop. onFail, if non-nil,
// is invoked with the next-hop address when the link-layer reports no
// delivery (out of range, down, lost) or when the neighbour cannot be
// resolved.
func (n *Node) sendSourceRouted(pkt *wire.Packet, onFail func(next ipv6.Addr)) {
	if n.dead {
		// An in-flight ACK-outcome callback may still route here after
		// Shutdown; the node no longer has a radio port to transmit from.
		return
	}
	next, ok := pkt.NextHop()
	if !ok {
		n.met.Add1(trace.TxRouteExhausted)
		return
	}
	n.sendToHop(n.encodeFrame(pkt), next, next == pkt.Dst && lastHopBroadcast(pkt.Msg), onFail)
}

// sendToHop transmits a source-routed frame to its next hop: broadcast
// when the final hop must be (see lastHopBroadcast), unicast to the
// resolved neighbour otherwise. onFail is sendSourceRouted's.
func (n *Node) sendToHop(raw []byte, next ipv6.Addr, broadcast bool, onFail func(next ipv6.Addr)) {
	if broadcast {
		n.medium.BroadcastFrame(n.link, raw)
		return
	}
	nid, known := n.neighbors[next]
	if !known {
		n.met.Add1(trace.TxNoNeighbor)
		n.medium.ReleaseFrame(raw) // built but never transmitted
		if onFail != nil {
			onFail(next)
		}
		return
	}
	n.medium.UnicastFrame(n.link, nid, raw, func(acked bool) {
		if !acked && onFail != nil {
			onFail(next)
		}
	})
}

// maxFloodRecord caps hop-accumulated route records with headroom under
// the codec's 255-hop route limit.
const maxFloodRecord = 250

// relayRecord rebroadcasts a flooded AREQ or audit advertisement with this
// node's address appended to its route record, spliced from the received
// bytes. Unconfigured nodes cannot appear in a route record and stay
// silent.
func (n *Node) relayRecord(f *frame) {
	if !n.configured || f.env.TTL <= 1 || f.env.RecordLen >= maxFloodRecord {
		return
	}
	n.medium.BroadcastFrame(n.link, n.spliceFrame(f, &wire.HopAttestation{IP: n.ident.Addr}))
}

// reverse returns a reversed copy of a route record.
func reverse(rr []ipv6.Addr) []ipv6.Addr {
	out := make([]ipv6.Addr, len(rr))
	for i, a := range rr {
		out[len(rr)-1-i] = a
	}
	return out
}

// dnsFloodKey hashes a flood-routed DNS control frame for dedup: the
// whole frame except its TTL byte. Every relay decrements the TTL, so a
// key covering it would make each hop's copy look new, and every
// configured node would re-flood each warn up to TTL times.
func dnsFloodKey(raw []byte) uint32 {
	h := fnv.New32a()
	h.Write(raw[:wire.TTLOffset])
	h.Write(raw[wire.TTLOffset+1:])
	return h.Sum32()
}

// challengeKey folds a flood's challenge into its dedup key, so two hosts
// that flood the same address with the same sequence number — two probes
// of one tentative address, a clone's concurrent audit advertisement — do
// not suppress each other's floods (their challenges differ).
func challengeKey(seq uint32, ch uint64) uint32 {
	return seq ^ uint32(ch) ^ uint32(ch>>32)
}
