// Package scenario builds and runs complete MANET simulations from a
// declarative configuration: node count and placement, mobility, radio
// parameters, protocol variant, adversaries and traffic workload. It is the
// shared substrate of the benchmark harness, the example programs and the
// integration tests.
//
// Every scenario runs on the region-sharded engine (internal/shard), with
// one region unless Config.Shards asks for more; the region count changes
// wall time only, never results. Node events run on their region's
// simulator, and a harness advances time with Scenario.RunFor, never by
// driving the engine directly: RunFor also applies the flow bookkeeping
// the regions logged. A run with traffic is a Live session (live.go):
// Live.Run is the one definition of a run to its end.
//
// Node 0 is always the DNS server, the network's single security anchor.
package scenario

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/boot"
	"sbr6/internal/core"
	"sbr6/internal/dnssrv"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/shard"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// Placement selects how nodes are laid out.
type Placement int

// Placement kinds.
const (
	PlaceUniform Placement = iota // uniform random in the area
	PlaceGrid                     // centred grid cells
	PlaceLine                     // horizontal chain (scripted topologies)
)

// MobilitySpec selects the mobility model. Zero value = static. Setting
// both Waypoint and Walk mixes the models: even nodes move by random
// waypoint, odd nodes by bounded random walk — the churn shape the
// cross-medium equivalence suite uses to drive cell-boundary crossings.
type MobilitySpec struct {
	Waypoint bool
	Walk     bool
	MinSpeed float64 // m/s
	MaxSpeed float64
	Pause    time.Duration // waypoint pause
	Epoch    time.Duration // walk leg length (default 10 s)
}

// Flow is a constant-bit-rate traffic source: it sends at Start +
// k·Interval into the measurement window, for k ≥ 1, at every instant
// strictly before Config.Duration.
type Flow struct {
	From, To int
	Interval time.Duration
	Size     int           // payload bytes
	Start    time.Duration // offset into the measurement window; the first send is one Interval later
}

// PartitionSpec stages the last Nodes nodes in a disjoint area beyond
// radio reach of the main deployment, where they bootstrap as an
// independently formed cluster, and then glides them onto their main-area
// positions once the network stands — the partition-merge shape in which
// two nodes can hold the same address with neither ever having been inside
// the other's DAD flood. Node 0 (the DNS anchor) always stays in the main
// cluster. The staging copy is density-preserving: partition nodes keep
// their relative layout, compacted so the staged cluster's local structure
// matches what it will have after the merge.
type PartitionSpec struct {
	// Nodes is how many trailing nodes form the partition; 0 disables.
	Nodes int
	// Gap is the distance in metres between the main area's right edge and
	// the staging area; 0 selects four radio ranges — far beyond any flood.
	Gap float64
	// JoinAt is when the partition starts moving, measured from the end of
	// the bootstrap phase.
	JoinAt time.Duration
	// Speed is the glide speed in m/s; 0 selects 25 m/s.
	Speed float64
}

// Config describes a full experiment.
type Config struct {
	Seed int64
	N    int // node count including the DNS server

	Area      geom.Rect
	Placement Placement
	Spacing   float64 // PlaceLine spacing (default 200 m)
	Mobility  MobilitySpec

	Radio    radio.Config
	Protocol core.Config
	DNS      dnssrv.Config

	// Names maps node index -> domain name registered during DAD.
	Names map[int]string
	// Preload maps domain name -> node index for permanent pre-provisioned
	// DNS bindings (established "before network formation").
	Preload map[string]int
	// Behaviors maps node index -> adversarial behaviour.
	Behaviors map[int]core.Behavior

	// Boot selects the bootstrap admission policy: boot.Serial (the zero
	// value, the historical global stagger) or boot.PerCell (spatially
	// disjoint cells bootstrap concurrently; same-cell claimants stay at
	// least one objection window apart).
	Boot boot.Kind
	// BootCellFraction overrides the per-cell admission bucket fraction
	// (boot.DefaultCellFraction when 0). Must stay within
	// (0, boot.MaxCellFraction] so same-bucket claimants keep guaranteed
	// direct radio reach.
	BootCellFraction float64
	// Partition, when Nodes > 0, bootstraps a disjoint cluster that merges
	// into the main area mid-run.
	Partition PartitionSpec
	// BootStagger separates DAD starts the policy must not overlap —
	// consecutive nodes under Serial, same-cell claimants under PerCell.
	// Defaults to the DAD timeout plus a margin so earlier nodes can relay
	// for later ones.
	BootStagger time.Duration
	// Warmup runs after bootstrap before measurement starts.
	Warmup time.Duration
	// Duration is the measurement window: flows send only before it ends,
	// and Live.Run measures ⌈Duration/WindowSize⌉ windows.
	Duration time.Duration
	// Cooldown lets in-flight packets land after the last send.
	Cooldown time.Duration

	Flows []Flow

	// WindowSize buckets sent/delivered counts into consecutive windows of
	// the measurement phase, so experiments can plot convergence over time
	// (e.g. credits learning around a black hole); it is also the step a
	// Live session advances by. NewLive defaults it to one second.
	WindowSize time.Duration

	// Shards is the region count of the simulation engine
	// (internal/shard); Build turns values below 1 into one region.
	// Results are byte-identical at every count, so it changes only wall
	// time.
	Shards int
}

// DefaultConfig is a 25-node static uniform network under the secure
// protocol with one CBR flow.
func DefaultConfig() Config {
	return Config{
		Seed:      1,
		N:         25,
		Area:      geom.Rect{W: 1000, H: 1000},
		Placement: PlaceUniform,
		Radio:     radio.DefaultConfig(),
		Protocol:  core.DefaultConfig(),
		DNS:       dnssrv.DefaultConfig(),
		Warmup:    2 * time.Second,
		Duration:  30 * time.Second,
		Cooldown:  5 * time.Second,
		Flows:     []Flow{{From: 1, To: 2, Interval: 500 * time.Millisecond, Size: 64}},
	}
}

// ErrConfig is wrapped by every configuration validation error Build
// returns, so callers can distinguish bad input from build failures.
var ErrConfig = errors.New("invalid configuration")

// Validate checks the parts of a Config that would otherwise surface as
// runtime panics or silent misbehavior. Build calls it; the public facade
// calls it eagerly at option-application time.
func Validate(cfg Config) error {
	if cfg.N < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes, got %d: %w", cfg.N, ErrConfig)
	}
	if !cfg.Boot.Valid() {
		return fmt.Errorf("scenario: unknown boot policy %d: %w", int(cfg.Boot), ErrConfig)
	}
	if f := cfg.BootCellFraction; f != 0 {
		if math.IsNaN(f) || f <= 0 || f > boot.MaxCellFraction {
			return fmt.Errorf("scenario: boot cell fraction %g outside (0, %g]: %w", f, boot.MaxCellFraction, ErrConfig)
		}
	}
	if cfg.Protocol.Audit.Period < 0 {
		return fmt.Errorf("scenario: negative audit period %v: %w", cfg.Protocol.Audit.Period, ErrConfig)
	}
	if p := cfg.Partition; p.Nodes != 0 {
		switch {
		case p.Nodes < 0 || p.Nodes >= cfg.N:
			return fmt.Errorf("scenario: partition of %d nodes needs 1..%d (node 0 anchors the main cluster): %w",
				p.Nodes, cfg.N-1, ErrConfig)
		case p.Gap < 0 || math.IsNaN(p.Gap) || math.IsInf(p.Gap, 0):
			return fmt.Errorf("scenario: partition gap %g must be finite and not negative: %w", p.Gap, ErrConfig)
		case p.Gap != 0 && p.Gap <= effectiveRange(cfg):
			return fmt.Errorf("scenario: partition gap %g must exceed the radio range %g or be 0 for the default: %w",
				p.Gap, effectiveRange(cfg), ErrConfig)
		case p.Speed < 0 || math.IsNaN(p.Speed) || math.IsInf(p.Speed, 0):
			return fmt.Errorf("scenario: partition speed %g must be finite and not negative: %w", p.Speed, ErrConfig)
		case p.JoinAt < 0:
			return fmt.Errorf("scenario: negative partition join offset %v: %w", p.JoinAt, ErrConfig)
		}
	}
	for i, f := range cfg.Flows {
		switch {
		case f.From < 0 || f.From >= cfg.N:
			return fmt.Errorf("scenario: flow %d: From=%d out of range [0,%d): %w", i, f.From, cfg.N, ErrConfig)
		case f.To < 0 || f.To >= cfg.N:
			return fmt.Errorf("scenario: flow %d: To=%d out of range [0,%d): %w", i, f.To, cfg.N, ErrConfig)
		case f.From == f.To:
			return fmt.Errorf("scenario: flow %d: From and To are both %d: %w", i, f.From, ErrConfig)
		case f.Interval <= 0:
			return fmt.Errorf("scenario: flow %d: non-positive interval %v: %w", i, f.Interval, ErrConfig)
		case f.Size < 0:
			return fmt.Errorf("scenario: flow %d: negative payload size %d: %w", i, f.Size, ErrConfig)
		case f.Start < 0:
			return fmt.Errorf("scenario: flow %d: negative start offset %v: %w", i, f.Start, ErrConfig)
		}
	}
	// Validation iterates map keys in sorted order so the FIRST invalid
	// entry reported is the same on every run: a config with several bad
	// entries must not produce a different error message per invocation
	// (the error text is part of the deterministic surface — harnesses
	// diff it).
	names := make([]string, 0, len(cfg.Preload))
	for name := range cfg.Preload {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if idx := cfg.Preload[name]; idx < 0 || idx >= cfg.N {
			return fmt.Errorf("scenario: preload %q references node %d: %w", name, idx, ErrConfig)
		}
	}
	for _, idx := range sortedKeys(cfg.Names) {
		if idx < 0 || idx >= cfg.N {
			return fmt.Errorf("scenario: name registration references node %d: %w", idx, ErrConfig)
		}
	}
	for _, idx := range sortedKeys(cfg.Behaviors) {
		if idx < 0 || idx >= cfg.N {
			return fmt.Errorf("scenario: behavior references node %d: %w", idx, ErrConfig)
		}
	}
	return nil
}

// sortedKeys returns m's keys in increasing order, for deterministic
// iteration over maps.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// effectiveRange is the radio range the medium will actually use (it
// defaults a zero Range to 250 m).
func effectiveRange(cfg Config) float64 {
	if cfg.Radio.Range <= 0 {
		return 250
	}
	return cfg.Radio.Range
}

// Scenario is a built simulation ready to run.
type Scenario struct {
	Cfg    Config
	Nodes  []*core.Node
	DNSSrv *dnssrv.Server

	sent      map[flowPacket]sim.Time
	flowStats map[int]*flowStat
	windows   []WindowReport
	// winBase is the absolute index of windows[0]; the session advances it
	// as finalized windows are emitted and dropped, so the retained ring
	// stays bounded.
	winBase int
	// onLatency receives end-to-end latency samples in seconds. The
	// session routes them to its bounded aggregates, so a departing source
	// cannot strand samples.
	onLatency    func(seconds float64)
	measureStart sim.Time
	bootOffsets  []time.Duration
	bootHorizon  time.Duration
	mergeDone    time.Duration // latest partition glide arrival; 0 = no partition

	// eng is the simulation engine: every node lives on one of its
	// regions.
	eng *shard.Engine
	// flowLogs defers the shared flow bookkeeping: send and delivery
	// events append to their own region's log, and RunFor replays the
	// merged logs in deterministic order after each span.
	flowLogs [][]flowLogEntry
}

// flowLogEntry is one deferred flow-bookkeeping action.
type flowLogEntry struct {
	at   sim.Time
	kind uint8 // flowSend sorts before flowDeliver at the same instant
	flow uint32
	seq  uint32
}

// Flow log entry kinds.
const (
	flowSend    uint8 = 0
	flowDeliver uint8 = 1
)

type flowPacket struct {
	flow uint32
	seq  uint32
}

type flowStat struct {
	sent, delivered int
}

// windowIndex buckets a simulation instant into a measurement window.
func (sc *Scenario) windowIndex(at sim.Time) int {
	off := at.Sub(sc.measureStart)
	if off < 0 {
		return -1
	}
	return int(off / sc.Cfg.WindowSize)
}

func (sc *Scenario) windowAt(idx int) *WindowReport {
	if idx < sc.winBase {
		return nil // finalized and dropped
	}
	idx -= sc.winBase
	for len(sc.windows) <= idx {
		abs := len(sc.windows) + sc.winBase
		sc.windows = append(sc.windows, WindowReport{
			Index: abs,
			Start: time.Duration(abs) * sc.Cfg.WindowSize,
		})
	}
	return &sc.windows[idx]
}

// Result aggregates a run's measurements.
type Result struct {
	Configured int // nodes that completed DAD
	DADFailed  int

	Sent      int // measured-window data packets offered
	Delivered int
	PDR       float64 // delivery ratio

	LatencyMean float64 // seconds
	LatencyP95  float64

	ControlBytes float64 // summed over nodes
	DataBytes    float64
	CryptoSign   float64
	CryptoVerify float64

	Link radio.Stats

	Metrics *trace.Metrics // merged node counters
	// Samples holds every sample series (e.g. "dad.latency_s") folded into
	// its bounded aggregate.
	Samples map[string]*SampleAgg
	PerFlow map[int]FlowResult
}

// FlowResult is one flow's delivery outcome.
type FlowResult struct {
	Sent, Delivered int
}

// Build constructs the network (deterministically from Cfg.Seed) without
// running it.
func Build(cfg Config) (*Scenario, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	if cfg.BootStagger <= 0 {
		cfg.BootStagger = cfg.Protocol.DAD.Timeout + 200*time.Millisecond
		if cfg.BootStagger <= 200*time.Millisecond {
			cfg.BootStagger = 3200 * time.Millisecond
		}
	}
	if cfg.Spacing <= 0 {
		cfg.Spacing = 200
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	// Scale the per-node duplicate-flood suppression sets with the
	// network: during a 10k-node bootstrap more than 4096 flood ids are
	// in flight, and a FIFO seen-set smaller than the working set forgets
	// ids while their copies still circulate — every late copy is then
	// re-processed, re-verified and re-broadcast. Four slots per node
	// keeps DAD and discovery floods deduplicated at any N; below ~1000
	// nodes this leaves the historical 4096 unchanged.
	if cfg.Protocol.FloodCache == 0 {
		cfg.Protocol.FloodCache = 4 * cfg.N
		if cfg.Protocol.FloodCache < 4096 {
			cfg.Protocol.FloodCache = 4096
		}
	}

	sc := &Scenario{
		Cfg:       cfg,
		sent:      make(map[flowPacket]sim.Time),
		flowStats: make(map[int]*flowStat),
	}

	// Placement.
	placeRng := rand.New(rand.NewSource(cfg.Seed ^ 0x7f4a7c15)) //sbr6:allow simrng seed-derived placement stream owned by Build
	var positions []geom.Point
	switch cfg.Placement {
	case PlaceGrid:
		positions = mobility.GridPlacement(cfg.Area, cfg.N)
	case PlaceLine:
		positions = mobility.LinePlacement(cfg.N, cfg.Spacing)
	default:
		positions = mobility.UniformPlacement(cfg.Area, cfg.N, placeRng)
	}

	// Partition staging: the trailing nodes spend formation in a disjoint
	// cluster beyond flood reach and glide onto their main-area positions
	// after the bootstrap phase.
	formationPos := positions
	if cfg.Partition.Nodes > 0 {
		formationPos = stagePartition(cfg, positions, effectiveRange(cfg))
	}

	// The simulation engine. Regions are partitioned from the
	// formation-start positions — ownership is a load-balancing choice
	// fixed at build time, so nodes that later roam (or glide in from a
	// staged partition) keep their home region.
	sc.eng = shard.New(shard.Config{
		Seed:      cfg.Seed,
		Regions:   cfg.Shards,
		Radio:     cfg.Radio,
		Positions: formationPos,
	})
	sc.flowLogs = make([][]flowLogEntry, sc.eng.Regions())

	// The admission schedule is fixed at build time from the formation-start
	// positions; policies are pure functions of the plan, so they consume no
	// RNG stream and never perturb the rest of the seeded run. The
	// horizon — when Bootstrap declares formation over — anchors the
	// partition glide start, so it is fixed here too: one extra stagger of
	// settle time beyond the last objection window, matching the historical
	// serial total of N*stagger + timeout + 2s exactly for every explicitly
	// configured timeout.
	sc.bootOffsets = boot.New(cfg.Boot).Schedule(boot.Plan{
		Seed:         cfg.Seed,
		Window:       cfg.Protocol.DAD.ObjectionWindow(),
		Stagger:      cfg.BootStagger,
		Cell:         effectiveRange(cfg),
		Anchor:       0, // the DNS server must be up before anyone needs it
		Positions:    formationPos,
		CellFraction: cfg.BootCellFraction,
	})
	sc.bootHorizon = boot.Horizon(sc.bootOffsets, cfg.Protocol.DAD.ObjectionWindow(), cfg.BootStagger+2*time.Second)

	// Identities. The DNS key pair is node 0's.
	dnsIdent, err := identity.New(cfg.Protocol.Suite, rand.New(rand.NewSource(cfg.Seed+1000)), cfg.Names[0]) //sbr6:allow simrng seed-derived DNS keygen stream owned by Build
	if err != nil {
		return nil, err
	}

	for i := 0; i < cfg.N; i++ {
		var ident *identity.Identity
		if i == 0 {
			ident = dnsIdent
		} else {
			ident, err = identity.New(cfg.Protocol.Suite, rand.New(rand.NewSource(cfg.Seed+1000+int64(i))), cfg.Names[i]) //sbr6:allow simrng seed-derived per-node keygen stream owned by Build
			if err != nil {
				return nil, err
			}
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 9000 + int64(i))) //sbr6:allow simrng seed-derived per-node protocol stream owned by Build
		// The node lives on its region's simulator and medium, and
		// everything it ever schedules — starting with construction-time
		// timers — is stamped with its own causal stream.
		ns, nm := sc.eng.NodeSim(radio.NodeID(i)), sc.eng.NodeMedium(radio.NodeID(i))
		prevOwner := ns.SetOwner(uint32(i) + 1)
		n := core.New(ns, nm, radio.NodeID(i), ident, dnsIdent.Pub, cfg.Protocol, rng, nil)
		if i == 0 {
			dcfg := cfg.DNS
			dcfg.Suite = cfg.Protocol.Suite
			sc.DNSSrv = dnssrv.New(ns, rng, dnsIdent, dcfg, nil)
			n.AttachDNS(sc.DNSSrv)
		}
		ns.SetOwner(prevOwner)
		if b, hostile := cfg.Behaviors[i]; hostile {
			n.Behavior = b
		}
		var track mobility.Track
		if cfg.Partition.Nodes > 0 && i >= cfg.N-cfg.Partition.Nodes {
			speed := cfg.Partition.Speed
			if speed <= 0 {
				speed = 25
			}
			g := mobility.NewGlide(formationPos[i], positions[i],
				sim.Time(0).Add(sc.bootHorizon+cfg.Partition.JoinAt), speed)
			if at := time.Duration(g.Arrival()); at > sc.mergeDone {
				sc.mergeDone = at
			}
			track = g
		} else {
			track = buildTrack(cfg, positions[i], i)
		}
		sc.eng.AddNode(radio.NodeID(i), track, n)
		sc.Nodes = append(sc.Nodes, n)
	}

	// Permanent DNS bindings exist before the network forms.
	//sbr6:commutative each preload writes a distinct name into the DNS table
	for name, idx := range cfg.Preload {
		sc.DNSSrv.Preload(name, sc.Nodes[idx].Addr())
	}

	return sc, nil
}

// stagePartition returns the formation-start positions: main-cluster nodes
// keep their placement; partition nodes move to a staging copy beyond the
// gap, compacted by sqrt(partition/total) so the staged cluster's density
// matches the main deployment's. The staging base is the bounding box of
// the actual placement, not the declared area — line placements routinely
// extend past cfg.Area — so the gap always separates the clusters by more
// than the radio range whatever the placement produced.
func stagePartition(cfg Config, positions []geom.Point, radioRange float64) []geom.Point {
	p := cfg.Partition
	gap := p.Gap
	if gap <= 0 {
		gap = 4 * radioRange
	}
	maxX := cfg.Area.W
	for _, pos := range positions {
		if pos.X > maxX {
			maxX = pos.X
		}
	}
	scale := math.Sqrt(float64(p.Nodes) / float64(cfg.N))
	out := append([]geom.Point(nil), positions...)
	for i := cfg.N - p.Nodes; i < cfg.N; i++ {
		out[i] = geom.Point{
			X: maxX + gap + positions[i].X*scale,
			Y: positions[i].Y * scale,
		}
	}
	return out
}

// buildTrack constructs node i's mobility track per the spec: static,
// random waypoint, bounded random walk, or (when both models are selected)
// the even/odd mix the churn suites use. Every moving track draws from a
// node-dedicated seeded source, so adding walk nodes never shifts another
// node's trajectory.
func buildTrack(cfg Config, start geom.Point, i int) mobility.Track {
	m := cfg.Mobility
	useWalk := m.Walk && (!m.Waypoint || i%2 == 1)
	switch {
	case useWalk:
		return mobility.NewWalk(mobility.WalkConfig{
			Region: cfg.Area,
			Speed:  m.MaxSpeed,
			Epoch:  m.Epoch,
		}, start, rand.New(rand.NewSource(cfg.Seed+20000+int64(i)))) //sbr6:allow simrng seed-derived per-node walk track stream
	case m.Waypoint:
		return mobility.NewWaypoint(mobility.WaypointConfig{
			Region:   cfg.Area,
			MinSpeed: m.MinSpeed,
			MaxSpeed: m.MaxSpeed,
			Pause:    m.Pause,
		}, start, rand.New(rand.NewSource(cfg.Seed+20000+int64(i)))) //sbr6:allow simrng seed-derived per-node waypoint track stream
	default:
		return mobility.Static(start)
	}
}

// BootOffsets returns a copy of the per-node DAD start offsets the
// admission policy assigned; index i is node i's delay from formation
// start. The conformance suites use it to place seeded conflicts at known
// points of the schedule.
func (sc *Scenario) BootOffsets() []time.Duration {
	return append([]time.Duration(nil), sc.bootOffsets...)
}

// Bootstrap starts DAD per the admission policy's schedule and runs until
// the last objection window closes (the horizon Build fixed; ObjectionWindow
// is what the initiators actually arm, so a zero Timeout — the ndp default
// in effect — still runs until the last window has closed). It returns how
// many nodes configured successfully.
func (sc *Scenario) Bootstrap() int {
	configured, _ := sc.bootstrap(context.TODO())
	return configured
}

// bootstrap is Bootstrap under ctx, which it checks before every
// cancelSpan of virtual time; ok is false when ctx ended it early.
func (sc *Scenario) bootstrap(ctx context.Context) (configured int, ok bool) {
	for i, n := range sc.Nodes {
		sc.eng.ScheduleOwnedAt(radio.NodeID(i), sc.Now().Add(sc.bootOffsets[i]), n.Start)
	}
	for end := sc.Now().Add(sc.bootHorizon); sc.Now() < end; {
		if ctx.Err() != nil {
			return 0, false
		}
		sc.RunFor(min(end.Sub(sc.Now()), cancelSpan))
	}
	for _, n := range sc.Nodes {
		if n.Configured() {
			configured++
		}
	}
	return configured, true
}

// MergeComplete returns the virtual instant (from run start) by which every
// partition node has arrived at its main-area position — zero when the
// scenario stages no partition. The merge suites size their post-formation
// run spans from it.
func (sc *Scenario) MergeComplete() time.Duration { return sc.mergeDone }

// StartAudits arms every node's audit sweep: one chain per node at its
// seed-stable phase (audit.Offset), where a zero phase waits one period.
// Each firing re-advertises the node's binding and schedules the next,
// until the node departs. A Live session arms it once after bootstrap;
// harnesses that drive Bootstrap directly arm it themselves, once. With
// the sweep disabled it schedules nothing, draws nothing, and the run is
// byte-identical to one without the audit subsystem.
func (sc *Scenario) StartAudits() {
	for i := range sc.Nodes {
		sc.startAudit(i)
	}
}

// startAudit arms node i's audit chain. Each firing reschedules the next on
// the node's own simulator, so ownership is inherited.
func (sc *Scenario) startAudit(i int) {
	period := sc.Cfg.Protocol.Audit.Period
	if period <= 0 {
		return
	}
	n, ns := sc.Nodes[i], sc.eng.NodeSim(radio.NodeID(i))
	var fire func()
	fire = func() {
		if n.Dead() {
			return
		}
		n.AuditAdvertise()
		ns.After(period, fire)
	}
	first := audit.Offset(sc.Cfg.Seed, i, period)
	if first == 0 {
		first = period
	}
	sc.eng.ScheduleOwnedAt(radio.NodeID(i), sc.Now().Add(first), fire)
}

// RunFor advances the simulation by d through the engine's barrier
// protocol, running every node event due in the span, then applies the
// flow bookkeeping those events logged.
func (sc *Scenario) RunFor(d time.Duration) {
	sc.eng.RunFor(d)
	sc.replayFlowLogs()
}

// cancelSpan is the most virtual time a bootstrap advances between two
// checks of its context.
const cancelSpan = 100 * time.Millisecond

// Now returns the current virtual time.
func (sc *Scenario) Now() sim.Time { return sc.eng.Now() }

// Engine returns the simulation engine.
func (sc *Scenario) Engine() *shard.Engine { return sc.eng }

// armFlow sets up flow fi's stats and sink hook and returns the action
// that sends one of its packets; the caller schedules it as an event owned
// by the source. The send events and the delivery hook run inside region
// event loops, so instead of mutating the shared bookkeeping directly —
// the sent map, window counters and the source's latency samples are all
// order-sensitive — they append to their own region's log;
// replayFlowLogs applies the merged logs in a shard-count-independent
// order after each span.
func (sc *Scenario) armFlow(fi int) func() {
	f := sc.Cfg.Flows[fi]
	sc.flowStats[fi] = &flowStat{}
	flowID := uint32(fi + 1)
	sc.hookFlowSink(flowID, f.To)
	srcID, src := radio.NodeID(f.From), sc.Nodes[f.From]
	srcRegion, srcSim := sc.eng.RegionOf(srcID), sc.eng.NodeSim(srcID)
	// The destination address is captured once, here, while every region
	// is idle: reading it from inside the source's event loop would cross
	// region ownership. Flows target post-formation addresses, so the
	// snapshot is the address the sink holds.
	dstAddr := sc.Nodes[f.To].Addr()
	payload := make([]byte, f.Size)
	return func() {
		_, seq := src.SendFlow(dstAddr, flowID, payload)
		sc.flowLogs[srcRegion] = append(sc.flowLogs[srcRegion],
			flowLogEntry{at: srcSim.Now(), kind: flowSend, flow: flowID, seq: seq})
	}
}

// hookFlowSink chains a delivery hook onto the flow's sink, node to, that
// logs each of the flow's packets into the sink region's flow log.
func (sc *Scenario) hookFlowSink(flowID uint32, to int) {
	dst, dstID := sc.Nodes[to], radio.NodeID(to)
	dstRegion, dstSim := sc.eng.RegionOf(dstID), sc.eng.NodeSim(dstID)
	prevOnData := dst.OnData
	dst.OnData = func(from ipv6.Addr, d *wire.Data) {
		if prevOnData != nil {
			prevOnData(from, d)
		}
		if d.FlowID != flowID {
			return
		}
		sc.flowLogs[dstRegion] = append(sc.flowLogs[dstRegion],
			flowLogEntry{at: dstSim.Now(), kind: flowDeliver, flow: d.FlowID, seq: d.Seq})
	}
}

// replayFlowLogs drains the per-region flow logs and applies them to the
// shared bookkeeping in (at, kind, flow, seq) order. RunFor calls it after
// every span, when all regions have quiesced at the engine's clock, so
// every logged instant is final. Sends sort before deliveries at the same
// instant,
// since a packet cannot land before SendFlow recorded it; a duplicate
// delivery counts nothing, because only the first replayed delivery finds
// its packet tracked.
func (sc *Scenario) replayFlowLogs() {
	total := 0
	for i := range sc.flowLogs {
		total += len(sc.flowLogs[i])
	}
	if total == 0 {
		return
	}
	batch := make([]flowLogEntry, 0, total)
	for i := range sc.flowLogs {
		batch = append(batch, sc.flowLogs[i]...)
		sc.flowLogs[i] = sc.flowLogs[i][:0]
	}
	sort.Slice(batch, func(a, b int) bool {
		x, y := batch[a], batch[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.kind != y.kind {
			return x.kind < y.kind
		}
		if x.flow != y.flow {
			return x.flow < y.flow
		}
		return x.seq < y.seq
	})
	for _, e := range batch {
		st := sc.flowStats[int(e.flow)-1]
		key := flowPacket{e.flow, e.seq}
		if e.kind == flowSend {
			sc.sent[key] = e.at
			st.sent++
			if w := sc.windowAt(sc.windowIndex(e.at)); w != nil {
				w.Sent++
			}
			continue
		}
		sentAt, tracked := sc.sent[key]
		if !tracked {
			continue // duplicate or out-of-window
		}
		delete(sc.sent, key)
		st.delivered++
		sc.onLatency(e.at.Sub(sentAt).Seconds())
		if w := sc.windowAt(sc.windowIndex(sentAt)); w != nil {
			w.Delivered++
		}
	}
}

// Components returns the connected components of the unit-disk graph at
// the current instant, as slices of node indices. Experiments use it to
// distinguish protocol failures from plain partitions.
func (sc *Scenario) Components() [][]int {
	n := sc.Cfg.N
	// Ports may be spread across region media, so assemble a global snapshot:
	// positions at the current barrier instant in one grid.
	r := effectiveRange(sc.Cfg)
	pos := make([]geom.Point, n)
	grid := geom.NewGrid(r)
	for i := 0; i < n; i++ {
		pos[i] = sc.eng.PosNow(radio.NodeID(i))
		grid.Set(i, pos[i])
	}
	r2 := r * r
	visited := make([]bool, n)
	var comps [][]int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		comp := []int{start}
		visited[start] = true
		for i := 0; i < len(comp); i++ {
			p := pos[comp[i]]
			grid.Visit(p, r, func(id int) {
				if !visited[id] && p.Dist2(pos[id]) <= r2 {
					visited[id] = true
					comp = append(comp, id)
				}
			})
		}
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether every node can currently reach every other.
func (sc *Scenario) Connected() bool { return len(sc.Components()) == 1 }

// String renders a one-line summary of the result.
func (r *Result) String() string {
	return fmt.Sprintf("pdr=%.3f (%d/%d) latency=%.3fs ctrl=%.0fB data=%.0fB sign=%.0f verify=%.0f dad=%d/%d",
		r.PDR, r.Delivered, r.Sent, r.LatencyMean, r.ControlBytes, r.DataBytes,
		r.CryptoSign, r.CryptoVerify, r.Configured, r.Configured+r.DADFailed)
}
