package sbr6

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"sbr6/internal/boot"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
)

// ErrOption is wrapped by every error NewScenario returns for an invalid
// option or an inconsistent combination of options.
var ErrOption = errors.New("sbr6: invalid option")

// Placement selects how nodes are laid out in the area.
type Placement int

// Placement kinds. Node 0 — the DNS server and trust anchor — is placed
// like every other node.
const (
	PlaceUniform Placement = iota // uniform random inside the area
	PlaceGrid                     // centred grid cells; area auto-sizes to 200 m cells when unset
	PlaceLine                     // horizontal chain, Spacing metres apart
)

// BootPolicy selects the bootstrap admission policy: how DAD starts are
// spread out during network formation. Every policy forms the same network
// — all nodes addressed, addresses unique, duplicate claims detected with
// identical counters (the formation conformance suite in internal/boot is
// the proof) — the choice only trades formation time against how
// conservatively claims are serialized.
type BootPolicy int

// Bootstrap admission policies.
const (
	// BootSerial starts node i at i times the boot stagger — the
	// historical global serialization. Formation time is linear in the
	// node count.
	BootSerial BootPolicy = iota
	// BootPerCell staggers only claimants sharing a radio-range grid cell;
	// disjoint neighborhoods bootstrap concurrently, so formation time
	// scales with cell occupancy instead of N.
	BootPerCell
)

// Suite selects the signature algorithm of the secure protocol.
type Suite int

// Supported signature suites.
const (
	Ed25519 Suite = iota
	RSA1024
)

func (s Suite) internal() (identity.Suite, error) {
	switch s {
	case Ed25519:
		return identity.SuiteEd25519, nil
	case RSA1024:
		return identity.SuiteRSA1024, nil
	default:
		return 0, fmt.Errorf("unknown signature suite %d: %w", s, ErrOption)
	}
}

// Mobility describes node motion. The zero value keeps nodes static; by
// default motion is random waypoint, with Walk switching to a bounded
// random walk (direction re-drawn every Epoch at MaxSpeed).
type Mobility struct {
	MinSpeed float64       // m/s (waypoint only)
	MaxSpeed float64       // m/s
	Pause    time.Duration // waypoint pause at each destination
	Walk     bool          // bounded random walk instead of waypoint
	Epoch    time.Duration // walk leg length (default 10s)
}

// Radio parameterizes the shared wireless medium.
type Radio struct {
	Range           float64       // unit-disk reception radius in metres
	BitrateBps      float64       // transmission serialization rate; <=0 means instantaneous
	LossRate        float64       // independent per-receiver frame loss probability [0,1)
	PropDelay       time.Duration // fixed propagation + processing latency
	BroadcastJitter time.Duration // uniform random delay before any transmission
	UnicastRetries  int           // link-layer retransmissions after a missing ACK
}

// DefaultRadio mimics a 2 Mb/s 802.11-style radio with a 250 m range.
func DefaultRadio() Radio {
	d := radio.DefaultConfig()
	return Radio{
		Range:           d.Range,
		BitrateBps:      d.BitrateBps,
		LossRate:        d.LossRate,
		PropDelay:       d.PropDelay,
		BroadcastJitter: d.BroadcastJitter,
		UnicastRetries:  d.UnicastRetries,
	}
}

// Flow is a constant-bit-rate traffic source. It sends at Start +
// k·Interval into the measurement window, for k ≥ 1, at every instant
// strictly before the scenario's Duration.
type Flow struct {
	From, To int           // node indices; distinct, inside [0, nodes)
	Interval time.Duration // inter-packet gap, must be positive
	Size     int           // payload bytes
	Start    time.Duration // offset into the measurement window; the first send is one Interval later
}

// TapEvent is one packet reception observed by a packet tap.
type TapEvent struct {
	Node int           // receiving node index
	At   time.Duration // virtual time of the reception
	Desc string        // rendered packet summary
}

// Scenario is a validated, immutable experiment declaration. Build one
// with NewScenario, then execute it with a Runner (one or many seeds) or
// drive it as a long-lived Session with Serve.
type Scenario struct {
	cfg     scenario.Config
	areaSet bool
	advs    []Adversary
	tap     func(TapEvent)
	tapMu   sync.Mutex // serializes tap delivery across batch workers
}

// emitTap delivers one tap event under the scenario's lock, so a tap
// shared by parallel batch replicates never races.
func (s *Scenario) emitTap(ev TapEvent) {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	s.tap(ev)
}

// Option configures a Scenario under construction. Options validate
// eagerly: a bad value surfaces from NewScenario as a descriptive error
// wrapping ErrOption instead of a panic mid-run.
type Option func(*Scenario) error

// NewScenario validates opts eagerly and compiles them into an executable
// scenario. Defaults (before any option): 25 static nodes on a uniform
// 1000x1000 m area, the secure protocol with every defense enabled, the
// default radio, seed 1, a 2 s warmup, 30 s measurement window and 5 s
// cooldown, and no traffic flows. Node 0 is always the DNS server, the
// network's single trust anchor.
func NewScenario(opts ...Option) (*Scenario, error) {
	base := scenario.DefaultConfig()
	base.Flows = nil
	s := &Scenario{cfg: base}
	for _, opt := range opts {
		if opt == nil {
			return nil, fmt.Errorf("nil option: %w", ErrOption)
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if !s.areaSet && s.cfg.Placement == scenario.PlaceGrid {
		side := gridSide(s.cfg.N)
		s.cfg.Area = geom.Rect{W: 200 * float64(side), H: 200 * float64(side)}
	}
	return s, nil
}

// validate runs the cross-field checks that need every option applied.
// The checks shared with the internal harness (node count, flows, names,
// preloads) live in scenario.Validate so the two layers cannot drift;
// only the adversary checks are facade concepts validated here.
func (s *Scenario) validate() error {
	cfg := s.cfg
	if err := scenario.Validate(cfg); err != nil {
		return fmt.Errorf("%w: %w", ErrOption, err)
	}
	seen := map[int]string{}
	for _, a := range s.advs {
		if a.build == nil {
			return fmt.Errorf("WithAdversaries: zero-value Adversary (use a constructor): %w", ErrOption)
		}
		if a.node <= 0 || a.node >= cfg.N {
			return fmt.Errorf("WithAdversaries: %s at node %d outside [1,%d) (node 0 is the DNS anchor): %w",
				a.kind, a.node, cfg.N, ErrOption)
		}
		if prev, dup := seen[a.node]; dup {
			return fmt.Errorf("WithAdversaries: node %d assigned both %s and %s: %w", a.node, prev, a.kind, ErrOption)
		}
		seen[a.node] = a.kind
		if a.victim != 0 && (a.victim < 0 || a.victim >= cfg.N || a.victim == a.node) {
			return fmt.Errorf("WithAdversaries: %s at node %d has invalid victim %d: %w", a.kind, a.node, a.victim, ErrOption)
		}
	}
	return nil
}

// finitePos reports whether x is a finite, strictly positive number —
// what every metres/speed option requires. NaN and ±Inf pass ordinary
// comparisons in surprising ways, so the options check explicitly.
func finitePos(x float64) bool {
	return x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x)
}

func gridSide(n int) int {
	side := 1
	for side*side < n {
		side++
	}
	return side
}

// WithSeed sets the default seed used by Runner.Run and Serve. RunBatch
// overrides it per replicate.
func WithSeed(seed int64) Option {
	return func(s *Scenario) error {
		s.cfg.Seed = seed
		return nil
	}
}

// WithNodes sets the node count, including the DNS server at index 0.
func WithNodes(n int) Option {
	return func(s *Scenario) error {
		if n < 2 {
			return fmt.Errorf("WithNodes(%d): need at least 2 nodes: %w", n, ErrOption)
		}
		s.cfg.N = n
		return nil
	}
}

// WithArea sets the deployment area in metres. Without it, grid placement
// auto-sizes to 200 m cells and the other placements keep 1000x1000 m.
func WithArea(w, h float64) Option {
	return func(s *Scenario) error {
		if !finitePos(w) || !finitePos(h) {
			return fmt.Errorf("WithArea(%g, %g): dimensions must be positive and finite: %w", w, h, ErrOption)
		}
		s.cfg.Area = geom.Rect{W: w, H: h}
		s.areaSet = true
		return nil
	}
}

// WithPlacement selects the node layout.
func WithPlacement(p Placement) Option {
	return func(s *Scenario) error {
		switch p {
		case PlaceUniform:
			s.cfg.Placement = scenario.PlaceUniform
		case PlaceGrid:
			s.cfg.Placement = scenario.PlaceGrid
		case PlaceLine:
			s.cfg.Placement = scenario.PlaceLine
		default:
			return fmt.Errorf("WithPlacement(%d): unknown placement: %w", p, ErrOption)
		}
		return nil
	}
}

// WithSpacing sets the inter-node distance for PlaceLine (default 200 m).
func WithSpacing(metres float64) Option {
	return func(s *Scenario) error {
		if !finitePos(metres) {
			return fmt.Errorf("WithSpacing(%g): must be positive and finite: %w", metres, ErrOption)
		}
		s.cfg.Spacing = metres
		return nil
	}
}

// WithMobility puts every node under motion: random waypoint by default,
// bounded random walk when Walk is set.
func WithMobility(m Mobility) Option {
	return func(s *Scenario) error {
		if m.MinSpeed < 0 || !finitePos(m.MaxSpeed) || m.MinSpeed > m.MaxSpeed || math.IsNaN(m.MinSpeed) {
			return fmt.Errorf("WithMobility: speeds [%g, %g] m/s invalid: %w", m.MinSpeed, m.MaxSpeed, ErrOption)
		}
		if m.Pause < 0 {
			return fmt.Errorf("WithMobility: negative pause %v: %w", m.Pause, ErrOption)
		}
		if m.Epoch < 0 {
			return fmt.Errorf("WithMobility: negative walk epoch %v: %w", m.Epoch, ErrOption)
		}
		s.cfg.Mobility = scenario.MobilitySpec{
			Waypoint: !m.Walk, Walk: m.Walk,
			MinSpeed: m.MinSpeed, MaxSpeed: m.MaxSpeed,
			Pause: m.Pause, Epoch: m.Epoch,
		}
		return nil
	}
}

// WithRadio replaces the radio model. Zero Range falls back to 250 m.
func WithRadio(r Radio) Option {
	return func(s *Scenario) error {
		if r.LossRate < 0 || r.LossRate >= 1 || math.IsNaN(r.LossRate) {
			return fmt.Errorf("WithRadio: loss rate %g outside [0,1): %w", r.LossRate, ErrOption)
		}
		if r.Range < 0 || math.IsInf(r.Range, 0) || math.IsNaN(r.Range) {
			return fmt.Errorf("WithRadio: range %g must be finite and not negative: %w", r.Range, ErrOption)
		}
		s.cfg.Radio = radio.Config{
			Range:           r.Range,
			BitrateBps:      r.BitrateBps,
			LossRate:        r.LossRate,
			PropDelay:       r.PropDelay,
			BroadcastJitter: r.BroadcastJitter,
			MaxQueueDelay:   s.cfg.Radio.MaxQueueDelay,
			UnicastRetries:  r.UnicastRetries,
			PoisonFrames:    s.cfg.Radio.PoisonFrames,
		}
		return nil
	}
}

// WithBootStagger sets the delay between DAD starts the admission policy
// must keep apart: consecutive nodes under BootSerial, same-cell claimants
// under BootPerCell. The default — the DAD timeout plus a margin — is
// safest but makes the serial policy's bootstrap time linear in the node
// count; thousand-node serial scenarios want a much smaller stagger and
// tolerate the extra DAD contention. (BootPerCell never separates
// conflicting claims by less than the objection window, whatever the
// stagger.)
func WithBootStagger(d time.Duration) Option {
	return func(s *Scenario) error {
		if d <= 0 {
			return fmt.Errorf("WithBootStagger(%v): must be positive: %w", d, ErrOption)
		}
		s.cfg.BootStagger = d
		return nil
	}
}

// WithBootCellFraction sets the per-cell admission bucket side as a
// fraction of the radio range (default boot.DefaultCellFraction = 0.25),
// replacing what used to be a compiled constant. Sparse networks widen the
// protected radius essentially for free; the fraction is capped at
// 1/sqrt(2), past which the bucket diagonal exceeds one radio range and
// two same-bucket claimants would no longer be guaranteed direct radio
// reach — the invariant BootPerCell's detection argument rests on. Only
// meaningful under BootPerCell.
func WithBootCellFraction(f float64) Option {
	return func(s *Scenario) error {
		if !finitePos(f) || f > boot.MaxCellFraction {
			return fmt.Errorf("WithBootCellFraction(%g): need a fraction in (0, %g]: %w", f, boot.MaxCellFraction, ErrOption)
		}
		s.cfg.BootCellFraction = f
		return nil
	}
}

// WithAuditSweep enables the post-formation address audit sweep: every
// configured node re-advertises its signed CGA address binding once per
// period (phase-staggered by a seed-stable hash so sweeps never
// synchronize), any node holding a conflicting binding raises a signed
// objection, and the conflict resolves deterministically — the binding
// with the lower CGA digest rekeys and re-runs DAD; bit-identical bindings
// (a cloned identity) make both sides rekey. The sweep closes the two
// duplicate-address windows one-shot DAD cannot see: simultaneous claims
// from different admission cells, and partition merges where both
// claimants configured before ever sharing a radio. Disabled by default;
// disabling it is a provable no-op (byte-identical runs).
func WithAuditSweep(period time.Duration) Option {
	return func(s *Scenario) error {
		if period <= 0 {
			return fmt.Errorf("WithAuditSweep(%v): period must be positive: %w", period, ErrOption)
		}
		s.cfg.Protocol.Audit.Period = period
		return nil
	}
}

// WithBootPolicy selects the bootstrap admission policy. The default,
// BootSerial, is the historical global stagger; BootPerCell bootstraps
// spatially disjoint grid cells concurrently and cuts large-network
// formation time from O(N) to O(max cell occupancy) staggers while keeping
// same-cell claims at least one objection window apart.
func WithBootPolicy(p BootPolicy) Option {
	return func(s *Scenario) error {
		switch p {
		case BootSerial:
			s.cfg.Boot = boot.Serial
		case BootPerCell:
			s.cfg.Boot = boot.PerCell
		default:
			return fmt.Errorf("WithBootPolicy(%d): unknown policy: %w", p, ErrOption)
		}
		return nil
	}
}

// WithRadioRange overrides just the reception radius in metres.
func WithRadioRange(metres float64) Option {
	return func(s *Scenario) error {
		if !finitePos(metres) {
			return fmt.Errorf("WithRadioRange(%g): must be positive and finite: %w", metres, ErrOption)
		}
		s.cfg.Radio.Range = metres
		return nil
	}
}

// WithLoss overrides just the per-receiver frame loss probability.
func WithLoss(p float64) Option {
	return func(s *Scenario) error {
		if p < 0 || p >= 1 || math.IsNaN(p) {
			return fmt.Errorf("WithLoss(%g): outside [0,1): %w", p, ErrOption)
		}
		s.cfg.Radio.LossRate = p
		return nil
	}
}

// WithFlows declares the constant-bit-rate traffic of the measurement
// window, replacing any previously declared flows. Node-index range
// checks wait for the final node count; everything else validates here.
func WithFlows(flows ...Flow) Option {
	return func(s *Scenario) error {
		s.cfg.Flows = s.cfg.Flows[:0]
		for i, f := range flows {
			switch {
			case f.From < 0 || f.To < 0:
				return fmt.Errorf("WithFlows: flow %d: negative node index (From=%d To=%d): %w", i, f.From, f.To, ErrOption)
			case f.From == f.To:
				return fmt.Errorf("WithFlows: flow %d: From and To are both %d: %w", i, f.From, ErrOption)
			case f.Interval <= 0:
				return fmt.Errorf("WithFlows: flow %d: non-positive interval %v: %w", i, f.Interval, ErrOption)
			case f.Size < 0:
				return fmt.Errorf("WithFlows: flow %d: negative payload size %d: %w", i, f.Size, ErrOption)
			case f.Start < 0:
				return fmt.Errorf("WithFlows: flow %d: negative start offset %v: %w", i, f.Start, ErrOption)
			}
			s.cfg.Flows = append(s.cfg.Flows, scenario.Flow{
				From: f.From, To: f.To, Interval: f.Interval, Size: f.Size, Start: f.Start,
			})
		}
		return nil
	}
}

// WithSecure selects the paper's full secure protocol (CGA autoconf,
// per-hop attestations, credits). This is the default.
func WithSecure() Option {
	return func(s *Scenario) error {
		tuned := s.cfg.Protocol
		s.cfg.Protocol = core.DefaultConfig()
		s.cfg.Protocol.Suite = tuned.Suite
		restoreTimers(&s.cfg.Protocol, tuned)
		return nil
	}
}

// WithBaseline selects plain DSR with no defenses, the paper's comparison
// point.
func WithBaseline() Option {
	return func(s *Scenario) error {
		tuned := s.cfg.Protocol
		s.cfg.Protocol = core.BaselineConfig()
		restoreTimers(&s.cfg.Protocol, tuned)
		return nil
	}
}

// restoreTimers keeps previously applied timer options (WithFastTimers,
// WithDADTimeout, WithAuditSweep) stable across a later
// WithSecure/WithBaseline.
func restoreTimers(dst *core.Config, src core.Config) {
	dst.DAD.Timeout = src.DAD.Timeout
	dst.DiscoveryTimeout = src.DiscoveryTimeout
	dst.AckTimeout = src.AckTimeout
	dst.ResolveTimeout = src.ResolveTimeout
	dst.Audit = src.Audit
}

// WithCredits toggles the credit mechanism and its loss-probing (Section
// 3.4 defenses against insider black holes). Only meaningful in secure
// mode.
func WithCredits(on bool) Option {
	return func(s *Scenario) error {
		s.cfg.Protocol.UseCredits = on
		s.cfg.Protocol.ProbeOnLoss = on
		return nil
	}
}

// WithRouteCache toggles cached-route replies (CREP) and source-side route
// reuse.
func WithRouteCache(on bool) Option {
	return func(s *Scenario) error {
		s.cfg.Protocol.UseCache = on
		return nil
	}
}

// WithSuite selects the signature suite of the secure protocol.
func WithSuite(suite Suite) Option {
	return func(s *Scenario) error {
		is, err := suite.internal()
		if err != nil {
			return fmt.Errorf("WithSuite: %w", err)
		}
		s.cfg.Protocol.Suite = is
		return nil
	}
}

// WithRERRThreshold sets how many route errors within the spam window flag
// a reporter as a suspected RERR spammer.
func WithRERRThreshold(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithRERRThreshold(%d): must be at least 1: %w", n, ErrOption)
		}
		s.cfg.Protocol.RERRThreshold = n
		return nil
	}
}

// WithAdversaries places adversarial behaviors on nodes, appending to any
// already declared. Each replicate of a batch gets fresh adversary state.
func WithAdversaries(advs ...Adversary) Option {
	return func(s *Scenario) error {
		for i, a := range advs {
			if a.build == nil {
				return fmt.Errorf("WithAdversaries: adversary %d is a zero-value Adversary (use a constructor): %w", i, ErrOption)
			}
		}
		s.advs = append(s.advs, advs...)
		return nil
	}
}

// WithTap streams every packet reception at honest (non-adversarial) nodes
// to f during the run. It is the low-level packet-trace hook: for run
// progress and per-window statistics use a Runner's Observer instead. The
// callback must not mutate simulation state. Calls are serialized, so a
// tap shared by the parallel replicates of a RunBatch needs no locking of
// its own (events from different seeds interleave arbitrarily).
func WithTap(f func(TapEvent)) Option {
	return func(s *Scenario) error {
		if f == nil {
			return fmt.Errorf("WithTap(nil): %w", ErrOption)
		}
		s.tap = f
		return nil
	}
}

// WithDuration sets the measurement window length (30 s by default). Flows
// send only inside it, in a Runner's replicate and a Session alike.
func WithDuration(d time.Duration) Option {
	return func(s *Scenario) error {
		if d <= 0 {
			return fmt.Errorf("WithDuration(%v): must be positive: %w", d, ErrOption)
		}
		s.cfg.Duration = d
		return nil
	}
}

// WithWarmup sets the settling period between bootstrap and measurement.
func WithWarmup(d time.Duration) Option {
	return func(s *Scenario) error {
		if d < 0 {
			return fmt.Errorf("WithWarmup(%v): must not be negative: %w", d, ErrOption)
		}
		s.cfg.Warmup = d
		return nil
	}
}

// WithCooldown sets how long in-flight packets may land after the last
// send.
func WithCooldown(d time.Duration) Option {
	return func(s *Scenario) error {
		if d < 0 {
			return fmt.Errorf("WithCooldown(%v): must not be negative: %w", d, ErrOption)
		}
		s.cfg.Cooldown = d
		return nil
	}
}

// WithWindows sets the window size: the step a Session's Advance takes
// and the span of each WindowReport (one second when unset). With it, a
// Runner also streams each measured window to its Observer and keeps them
// in Result.Windows.
func WithWindows(size time.Duration) Option {
	return func(s *Scenario) error {
		if size <= 0 {
			return fmt.Errorf("WithWindows(%v): must be positive: %w", size, ErrOption)
		}
		s.cfg.WindowSize = size
		return nil
	}
}

// WithName registers a domain name for a node during its DAD round.
func WithName(node int, name string) Option {
	return func(s *Scenario) error {
		if node < 0 {
			return fmt.Errorf("WithName(%d, %q): negative node index: %w", node, name, ErrOption)
		}
		if name == "" {
			return fmt.Errorf("WithName(%d, \"\"): empty name: %w", node, ErrOption)
		}
		if s.cfg.Names == nil {
			s.cfg.Names = map[int]string{}
		}
		s.cfg.Names[node] = name
		return nil
	}
}

// WithPreload provisions a permanent (name -> node) DNS binding that
// exists before the network forms, the paper's public-server case.
func WithPreload(name string, node int) Option {
	return func(s *Scenario) error {
		if name == "" {
			return fmt.Errorf("WithPreload(\"\", %d): empty name: %w", node, ErrOption)
		}
		if node < 0 {
			return fmt.Errorf("WithPreload(%q, %d): negative node index: %w", name, node, ErrOption)
		}
		if s.cfg.Preload == nil {
			s.cfg.Preload = map[string]int{}
		}
		s.cfg.Preload[name] = node
		return nil
	}
}

// WithDADTimeout sets the duplicate-address-detection objection window.
func WithDADTimeout(d time.Duration) Option {
	return func(s *Scenario) error {
		if d <= 0 {
			return fmt.Errorf("WithDADTimeout(%v): must be positive: %w", d, ErrOption)
		}
		s.cfg.Protocol.DAD.Timeout = d
		return nil
	}
}

// WithDNSCommitDelay sets how long an online DNS registration stays
// pending so warn-objections can cancel it.
func WithDNSCommitDelay(d time.Duration) Option {
	return func(s *Scenario) error {
		if d < 0 {
			return fmt.Errorf("WithDNSCommitDelay(%v): must not be negative: %w", d, ErrOption)
		}
		s.cfg.DNS.CommitDelay = d
		return nil
	}
}

// WithShards sets the region count of the simulation engine every scenario
// runs on (one region without this option): the area is cut into n
// x-sorted strips of equal node count, each with its own event loop and
// radio medium, synchronized by conservative lookahead derived from the
// radio propagation delay. Results are byte-for-byte identical at every
// region count — the differential suite in internal/shard is the proof —
// so the only observable effect of n is wall-clock speed on multi-core
// machines. A scenario without WithShards equals one with WithShards(1).
func WithShards(n int) Option {
	return func(s *Scenario) error {
		if n < 1 {
			return fmt.Errorf("WithShards(%d): need at least 1 region: %w", n, ErrOption)
		}
		s.cfg.Shards = n
		return nil
	}
}

// WithFastTimers shrinks every protocol timer to the values the experiment
// sweeps and benchmarks use, trading DAD robustness for throughput.
func WithFastTimers() Option {
	return func(s *Scenario) error {
		s.cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
		s.cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
		s.cfg.Protocol.AckTimeout = 400 * time.Millisecond
		s.cfg.Protocol.ResolveTimeout = 2 * time.Second
		s.cfg.DNS.CommitDelay = 300 * time.Millisecond
		return nil
	}
}

// Seed returns the scenario's default seed.
func (s *Scenario) Seed() int64 { return s.cfg.Seed }

// Nodes returns the node count, including the DNS server.
func (s *Scenario) Nodes() int { return s.cfg.N }

// instantiate builds the simulation for one seed: fresh adversary state
// on the attackers' nodes, so runs never share it, the tap on every other
// node, and each adversary bound to the built network. It returns the
// adversary state by node index.
func (s *Scenario) instantiate(seed int64) (*scenario.Scenario, map[int]core.Behavior, error) {
	cfg := s.cfg
	cfg.Seed = seed
	advs := make(map[int]core.Behavior, len(s.advs))
	cfg.Behaviors = make(map[int]core.Behavior, len(s.advs))
	for _, a := range s.advs {
		advs[a.node] = a.build()
		cfg.Behaviors[a.node] = advs[a.node]
	}
	if s.tap != nil {
		for i := 0; i < cfg.N; i++ {
			if _, taken := advs[i]; !taken {
				cfg.Behaviors[i] = &tapBehavior{f: s.emitTap, node: i}
			}
		}
	}
	sc, err := scenario.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, a := range s.advs {
		if a.bind != nil {
			a.bind(advs[a.node], sc)
		}
	}
	return sc, advs, nil
}
