// Package scalebench holds the scale workloads shared by the
// BenchmarkScale* benches and cmd/sbrbench -scale at 250-100000 nodes:
// the radio-layer flood (ScaleNetwork), the pooled wire path (WireNetwork),
// route-record verification (CryptoNetwork), formation under both
// admission policies, the audit sweep (AuditNetwork) and the flood on the
// shard engine (ShardNetwork). Each Run* function measures one cell as
// exact counts, which depend only on the workload, seed and round count,
// beside its wall time. ScaleResult.WriteRows prints a cell in perfbench's
// `name value unit samples` layout; .github/scale-ledger.sh keeps the
// count rows of a one-round sweep, and CI diffs them against
// .github/scale-ledger.txt at zero tolerance. Wall time is printed, never
// gated.
package scalebench

// Radio workload: the radio-layer traffic shape of the broadcast-heavy
// protocol phases (DAD floods, DSR route discovery) at 250-10000 nodes.
// The node count sweeps while density stays constant — the regime the
// paper's unit-disk model assumes — so the grid's per-broadcast cost
// stays flat as N grows.

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/boot"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/shard"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ScaleNetwork is a radio medium populated for the scale workload: nodes
// uniformly placed at constant density (~12 neighbours each), every odd
// node under random-waypoint motion with a declared speed bound, lossy
// links so the per-receiver loss draw is exercised.
type ScaleNetwork struct {
	S *sim.Simulator
	M *radio.Medium
	N int

	nbuf []radio.NodeID
}

// BuildScaleNetwork constructs the workload network. The area side scales
// with sqrt(n) so the expected degree is independent of n.
func BuildScaleNetwork(n int, seed int64) *ScaleNetwork {
	s := sim.New()
	cfg := radio.DefaultConfig()
	cfg.LossRate = 0.05
	m := radio.New(s, cfg, uint64(seed), nil)

	side := 125 * math.Sqrt(float64(n))
	region := geom.Rect{W: side, H: side}
	placeRng := newRand(seed)
	positions := mobility.UniformPlacement(region, n, placeRng)
	wp := mobility.WaypointConfig{Region: region, MinSpeed: 1, MaxSpeed: 10, Pause: time.Second}
	for i := 0; i < n; i++ {
		var track mobility.Track
		if i%2 == 1 {
			track = mobility.NewWaypoint(wp, positions[i], newRand(seed+int64(i)+1))
		} else {
			track = mobility.Static(positions[i])
		}
		m.AddNode(radio.NodeID(i), track.Position, track.SpeedBound(), radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	}
	return &ScaleNetwork{S: s, M: m, N: n}
}

// Round performs one flood epoch: every node broadcasts a 64-byte frame
// (the DAD/RREQ shape), the simulator drains all deliveries, and every
// node's neighbour set is queried once (the route-maintenance shape).
func (sn *ScaleNetwork) Round() {
	payload := make([]byte, 64)
	for i := 0; i < sn.N; i++ {
		sn.M.Broadcast(radio.NodeID(i), payload)
	}
	sn.S.Run()
	for i := 0; i < sn.N; i++ {
		sn.nbuf = sn.M.AppendNeighbors(radio.NodeID(i), sn.nbuf[:0])
	}
	// Space the epochs out so mobility actually moves nodes between them.
	sn.S.RunFor(time.Second)
}

// ScaleResult is one measured cell of the scale sweep.
type ScaleResult struct {
	Cell   string // workload and variant, e.g. "radio" or "shard.r8"
	Nodes  int
	Rounds int
	Wall   time.Duration // all timed rounds together
	Counts []Count       // totals over the timed rounds
}

// Count is one quantity of a cell. Units "count" and "ns" (virtual time)
// are exact: equal on every host for an equal seed and round count. The
// wire cell's "allocs" also see the Go runtime's own allocations, so they
// are printed but not gated.
type Count struct {
	Name  string
	Value uint64
	Unit  string
}

// WriteRows prints the cell in perfbench's `name value unit samples`
// layout, one row per count named cell.nodes.count, then the wall time.
// Samples is the number of timed rounds, and every row is a total over
// them. Counts print in full: perfbench's %.6g would print 5,534,028
// frames as 5.53403e+06 and hide a drift.
func (r ScaleResult) WriteRows(w io.Writer) {
	prefix := fmt.Sprintf("%s.%d.", r.Cell, r.Nodes)
	for _, c := range r.Counts {
		fmt.Fprintf(w, "%-34s %16d %-6s %d\n", prefix+c.Name, c.Value, c.Unit, r.Rounds)
	}
	fmt.Fprintf(w, "%-34s %16.6g %-6s %d\n", prefix+"wall_ms", float64(r.Wall)/float64(time.Millisecond), "ms", r.Rounds)
}

// WriteHeader prints the column names of the WriteRows layout.
func WriteHeader(w io.Writer) {
	fmt.Fprintf(w, "%-34s %16s %-6s %s\n", "metric", "value", "unit", "samples")
}

// timed runs round `rounds` times and returns the wall time they took.
// Wall time is read through the caller-supplied clock so the package
// stays free of direct wall-time reads outside this deliberate benchmark.
func timed(rounds int, round func(), now func() time.Time) time.Duration {
	start := now()
	for r := 0; r < rounds; r++ {
		round()
	}
	return now().Sub(start)
}

// floodCounts are a flood cell's counts over the timed rounds: events run
// and frames sent, received and lost.
func floodCounts(events uint64, before, after radio.Stats) []Count {
	return []Count{
		{"sim_events", events, "count"},
		{"tx_frames", after.TxFrames - before.TxFrames, "count"},
		{"rx_frames", after.RxFrames - before.RxFrames, "count"},
		{"lost_frames", after.LostFrames - before.LostFrames, "count"},
	}
}

// RunScale measures the radio workload at n nodes.
func RunScale(n int, seed int64, rounds int, now func() time.Time) ScaleResult {
	nw := BuildScaleNetwork(n, seed)
	nw.Round() // warm the index and mobility legs before timing
	baseEvents, baseStats := nw.S.Processed(), nw.M.Stats()
	wall := timed(rounds, nw.Round, now)
	return ScaleResult{
		Cell: "radio", Nodes: n, Rounds: rounds, Wall: wall,
		Counts: floodCounts(nw.S.Processed()-baseEvents, baseStats, nw.M.Stats()),
	}
}

// --- shard workload: the flood on the engine at 1 and ShardRegions regions ---
//
// The flood workload of the radio mode, run on the shard engine: the area
// is cut into x-sorted strips, each with its own event loop and medium,
// synchronized by conservative lookahead. The engine is proven
// byte-identical across region counts (the differential suite in
// internal/shard), so both cells send, receive and lose the same frames;
// the sharded cell counts more events, since a broadcast that crosses a
// strip boundary is also scanned by an event in the region across it.
// This is also the only sweep mode that reaches 100k nodes.

// ShardRegions is the region count of the sharded variant. Fixed rather
// than NumCPU-derived so the recorded workload is identical on every
// machine. Eight regions kept improving wall time past the available core
// count in tuning (smaller per-region heaps and grids are a locality win
// on their own), so the constant is set by the sweep, not by NumCPU.
const ShardRegions = 8

// ShardNetwork is the flood workload on the sharded engine.
type ShardNetwork struct {
	Eng *shard.Engine
	N   int

	payload []byte
}

// BuildShardNetwork constructs the workload at n nodes and the given region
// count: the radio workload's constant-density placement and lossy links,
// but static. Flood deliveries land nanoseconds apart, so every
// conservative window holds thousands of events and the cell measures
// parallel throughput, and each region's bounding box prunes the remote
// scans of broadcasts that cannot reach it, which a region holding a
// mover gives up. The differential suite covers mobility for correctness.
func BuildShardNetwork(n, regions int, seed int64) *ShardNetwork {
	cfg := radio.DefaultConfig()
	cfg.LossRate = 0.05

	side := 125 * math.Sqrt(float64(n))
	positions := mobility.UniformPlacement(geom.Rect{W: side, H: side}, n, newRand(seed))
	eng := shard.New(shard.Config{Seed: seed, Regions: regions, Radio: cfg, Positions: positions})
	for i := 0; i < n; i++ {
		eng.AddNode(radio.NodeID(i), mobility.Static(positions[i]),
			radio.HandlerFunc(func(radio.NodeID, []byte) {}))
	}
	return &ShardNetwork{Eng: eng, N: n, payload: make([]byte, 64)}
}

// Round performs one flood epoch: every node broadcasts a 64-byte frame as
// an owned event and the engine drains all deliveries, cross-region ones
// via the barrier exchange.
func (sn *ShardNetwork) Round() {
	at := sn.Eng.Now().Add(sim.Duration(time.Microsecond))
	for i := 0; i < sn.N; i++ {
		id := radio.NodeID(i)
		sn.Eng.ScheduleOwnedAt(id, at, func() {
			sn.Eng.NodeMedium(id).Broadcast(id, sn.payload)
		})
	}
	sn.Eng.RunFor(sim.Duration(time.Second))
}

// RunShard measures the flood workload on the engine at n nodes and the
// given region count.
func RunShard(n, regions int, seed int64, rounds int, now func() time.Time) ScaleResult {
	sn := BuildShardNetwork(n, regions, seed)
	sn.Round() // warm the grids, mobility legs and region partitions
	baseEvents, baseStats := sn.Eng.Events(), sn.Eng.Stats()
	wall := timed(rounds, sn.Round, now)
	return ScaleResult{
		Cell: fmt.Sprintf("shard.r%d", regions), Nodes: n, Rounds: rounds, Wall: wall,
		Counts: floodCounts(sn.Eng.Events()-baseEvents, baseStats, sn.Eng.Stats()),
	}
}

// --- wire workload: allocations of the pooled zero-alloc wire path ---
//
// The same flood traffic shape as the radio workload, but each broadcast
// goes through the full encode path — a realistic Data packet with a
// source route is serialized into a pooled frame per transmission — so the
// cell measures what the pooled wire path must keep at zero: the
// per-packet encode buffer, the delivery events and the per-transmit
// bookkeeping. TestWireRoundAllocs fails when a warm 1000-node round makes
// more than 10 allocations; the sweep reports the cell's allocations and
// wall time.

// WirePayload is the Data payload size of the wire workload, the 64-byte
// shape the radio workload floods.
const WirePayload = 64

// WireNetwork is a scale network plus per-node packet templates that each
// round re-encodes and broadcasts.
type WireNetwork struct {
	*ScaleNetwork
	pkts []*wire.Packet
	enc  wire.Encoder
}

// BuildWireNetwork constructs the wire workload at n nodes.
func BuildWireNetwork(n int, seed int64) *WireNetwork {
	nw := BuildScaleNetwork(n, seed)
	rng := newRand(seed)
	pkts := make([]*wire.Packet, n)
	for i := range pkts {
		var src, dst, via ipv6.Addr
		rng.Read(src[:])
		rng.Read(dst[:])
		rng.Read(via[:])
		pkts[i] = &wire.Packet{
			Src: src, Dst: dst, TTL: wire.DefaultTTL,
			SrcRoute: []ipv6.Addr{via},
			Msg:      &wire.Data{FlowID: uint32(i), Payload: make([]byte, WirePayload)},
		}
	}
	return &WireNetwork{ScaleNetwork: nw, pkts: pkts}
}

// Round performs one flood epoch with a real encode per broadcast: each
// packet is sized, appended into a pooled frame and handed to the medium.
func (wn *WireNetwork) Round() {
	for i, pkt := range wn.pkts {
		pkt.Msg.(*wire.Data).Seq++ // fresh bytes each round, like real flows
		raw := wn.enc.AppendEncode(wn.M.Frame(wn.enc.Size(pkt)), pkt)
		wn.M.BroadcastFrame(radio.NodeID(i), raw)
	}
	wn.S.Run()
	wn.S.RunFor(time.Second)
}

// RunWire measures the wire workload at n nodes. Allocations are counted
// with runtime.MemStats over the timed rounds, after a warmup round has
// populated the pools, the event free lists and the index.
func RunWire(n int, seed int64, rounds int, now func() time.Time) ScaleResult {
	wn := BuildWireNetwork(n, seed)
	wn.Round() // warm: pools, free lists, grid, mobility legs
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wall := timed(rounds, wn.Round, now)
	runtime.ReadMemStats(&after)
	return ScaleResult{
		Cell: "wire", Nodes: n, Rounds: rounds, Wall: wall,
		Counts: []Count{{"allocs", after.Mallocs - before.Mallocs, "allocs"}},
	}
}

// --- formation workload: wall-clock-to-fully-addressed by admission policy ---
//
// The whole-protocol companion to the radio and crypto cells: a complete
// secure bootstrap of an n-node network through the real scenario harness,
// measured from the first DAD start until every node is addressed, as the
// events it runs, its virtual span and its wall clock. Only configured
// nodes relay AREQ floods, so the serial policy makes claim k traverse ~k
// configured relays — the O(N^2) delivery bill that keeps 10k-node
// formation serialized — while the per-cell policy floods into a
// mostly-unconfigured network and pays a fraction of it.
// The flood TTL is clamped so the serial baseline stays affordable to
// measure; both policies run the identical configuration.

// FormationTTL bounds the DAD flood reach of the formation workload. Five
// hops covers every claimant's objection neighborhood several times over at
// the workload's density while keeping the serial baseline measurable at
// 10k nodes.
const FormationTTL = 5

// BuildFormation constructs the formation workload: n nodes at the scale
// sweep's constant density (~12 neighbours each), fast DAD timers, no
// traffic — the run is the bootstrap itself.
func BuildFormation(n int, k boot.Kind, seed int64) *scenario.Scenario {
	return buildFormation(n, k, seed, audit.Config{})
}

// buildFormation is BuildFormation with the audit sweep configuration the
// audit workload layers on top.
func buildFormation(n int, k boot.Kind, seed int64, ac audit.Config) *scenario.Scenario {
	cfg := scenario.DefaultConfig()
	cfg.Protocol.Audit = ac
	cfg.Seed = seed
	cfg.N = n
	side := 125 * math.Sqrt(float64(n))
	cfg.Area = geom.Rect{W: side, H: side}
	cfg.Placement = scenario.PlaceUniform
	cfg.Boot = k
	cfg.BootStagger = 500 * time.Millisecond
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.TTL = FormationTTL
	cfg.Flows = nil
	sc, err := scenario.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("scalebench: formation build: %v", err))
	}
	return sc
}

// RunFormation measures one policy's bootstrap at n nodes. Identity
// generation and placement happen outside the timed region; the clock
// covers exactly the bootstrap phase. A formation that leaves a node
// unaddressed panics rather than record a broken policy's counts.
func RunFormation(n int, k boot.Kind, seed int64, now func() time.Time) ScaleResult {
	sc := BuildFormation(n, k, seed)
	start := now()
	configured := sc.Bootstrap()
	wall := now().Sub(start)
	if configured != n {
		panic(fmt.Sprintf("scalebench: %s formation at %d nodes left %d unaddressed", k, n, n-configured))
	}
	return ScaleResult{
		Cell: "formation." + k.String(), Nodes: n, Rounds: 1, Wall: wall,
		Counts: []Count{
			{"sim_events", sc.Engine().Events(), "count"},
			{"configured", uint64(configured), "count"},
			{"virtual_ns", uint64(sc.Now()), "ns"},
		},
	}
}

// --- audit workload: per-sweep cost of the post-formation audit sweep ---
//
// One sweep period of the address audit over a fully formed network: every
// node floods one signed re-advertisement at its seed-stable phase and the
// network relays them. The advertisement TTL is bounded (the same
// FormationTTL clamp the formation workload uses), so each node processes
// only the advertisements originating within its TTL-hop neighbourhood —
// a constant at constant density — and per-node per-sweep cost stays flat
// as N grows. Conflict-free by construction, so steady-state verification
// cost is zero: the sweep's crypto bill is one signature per node per
// period and nothing else.

// AuditPeriod is the sweep period of the audit workload; the exact value
// only scales virtual time, not per-sweep work.
const AuditPeriod = 5 * time.Second

// AuditNetwork is a fully bootstrapped formation network with the audit
// sweep enabled, ready to run sweep rounds.
type AuditNetwork struct {
	SC *scenario.Scenario
	N  int
}

// BuildAuditNetwork bootstraps the formation workload's network (per-cell
// admission, constant density) and arms its audit sweep. The bootstrap
// happens outside any timed region.
func BuildAuditNetwork(n int, seed int64) *AuditNetwork {
	sc := buildFormation(n, boot.PerCell, seed, audit.Config{Period: AuditPeriod, TTL: FormationTTL})
	if configured := sc.Bootstrap(); configured != n {
		panic(fmt.Sprintf("scalebench: audit workload formation left %d/%d unaddressed", n-configured, n))
	}
	sc.StartAudits()
	return &AuditNetwork{SC: sc, N: n}
}

// RunAuditSweep measures the per-sweep-period cost of the standing audit at
// n nodes. Bootstrap happens outside the timed region; the conflict-free
// invariant (zero steady-state verifications) is enforced, never silently
// recorded.
func RunAuditSweep(n int, seed int64, rounds int, now func() time.Time) ScaleResult {
	an := BuildAuditNetwork(n, seed)
	an.Round() // warm: neighbor tables and flood seen-sets
	eng := an.SC.Engine()
	baseEvents, baseStats := eng.Events(), eng.Stats()
	wall := timed(rounds, an.Round, now)
	if ops := an.VerifyOps(); ops != 0 {
		panic(fmt.Sprintf("scalebench: conflict-free audit sweep performed %d verifications", ops))
	}
	return ScaleResult{
		Cell: "audit", Nodes: n, Rounds: rounds, Wall: wall,
		Counts: floodCounts(eng.Events()-baseEvents, baseStats, eng.Stats()),
	}
}

// Round runs exactly one sweep period: each node advertises once at its
// phase and the simulator drains the relays and deliveries.
func (an *AuditNetwork) Round() { an.SC.RunFor(AuditPeriod) }

// AdvsProcessed sums the rx.AADV counter over all nodes: how many distinct
// audit advertisements the network has accepted so far. Divided by nodes
// and sweeps it exposes the scaling law — each node hears only its TTL-hop
// neighbourhood's advertisements, a constant at constant density.
func (an *AuditNetwork) AdvsProcessed() uint64 {
	var total uint64
	for _, n := range an.SC.Nodes {
		total += uint64(n.Metrics().Get("rx.AADV"))
	}
	return total
}

// VerifyOps reports the primitive signature checks the sweep has performed
// so far (via the verification cache's miss counter; the benchmark asserts
// steady-state stays at zero on a conflict-free network).
func (an *AuditNetwork) VerifyOps() uint64 {
	var ops uint64
	for _, n := range an.SC.Nodes {
		ops += n.VerifyCacheStats().SigMisses
	}
	return ops
}

// --- crypto workload: verification with and without the memo cache ---
//
// Crypto workload: the Section 3.3 verification stream one node processes
// during formation of an n-node network, replayed against a real
// core.Node so the exact protocol path (verifySRR, memo cache included)
// is what gets measured. Each epoch brings a batch of freshly signed
// route-record chains over a population of n identities — new discovery
// floods carry new sequence numbers, so their signatures cannot be
// pre-warmed — and each chain is presented several times, far more
// often than a full run repeats one: there the flood seen-set admits each
// request once, and only re-served CREP attestations and repeated signed
// messages recur. Every copy re-runs the per-hop walk: without the cache
// each signature check is a primitive verification, with it every
// signature after a chain's first copy is one content digest and a hit.
// BenchmarkScaleVerify* times both verifiers; the sweep's cell runs the
// cached one and counts what the cache saves.

// CryptoChainHops is the route-record depth of every workload chain.
const CryptoChainHops = 6

// CryptoDuplicates is how many times each fresh chain is presented per
// epoch (1 fresh + duplicates-1 copies).
const CryptoDuplicates = 4

// CryptoNetwork is a verifier node plus the pre-built (pre-signed)
// verification streams, one per round. Building signs outside the timed
// region so rounds measure verification only.
type CryptoNetwork struct {
	Node   *core.Node
	epochs [][]*wire.RREQ
	next   int
}

// BuildCryptoNetwork constructs the workload for `epochs` rounds at
// n-node scale. cached selects the memoized (default) or direct verifier.
func BuildCryptoNetwork(n int, cached bool, seed int64, epochs int) *CryptoNetwork {
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig(), uint64(seed), nil)
	rng := newRand(seed)

	mustIdent := func(name string) *identity.Identity {
		id, err := identity.New(identity.SuiteEd25519, rng, name)
		if err != nil {
			panic(fmt.Sprintf("scalebench: identity: %v", err))
		}
		return id
	}
	dns := mustIdent("dns")
	cfg := core.DefaultConfig()
	cfg.DirectVerify = !cached
	node := core.New(s, medium, 0, mustIdent(""), dns.Pub, cfg, rng, nil)
	node.StartConfigured()

	pop := make([]*identity.Identity, n)
	for i := range pop {
		pop[i] = mustIdent("")
	}

	fresh := n / 32
	if fresh < 8 {
		fresh = 8
	}
	cn := &CryptoNetwork{Node: node}
	var seq uint32
	for e := 0; e < epochs; e++ {
		chains := make([]*wire.RREQ, 0, fresh)
		for j := 0; j < fresh; j++ {
			seq++
			src := pop[rng.Intn(n)]
			m := &wire.RREQ{
				SIP: src.Addr, DIP: pop[rng.Intn(n)].Addr, Seq: seq,
				SrcSig: src.Sign(wire.SigRREQSource(src.Addr, seq)),
				SPK:    src.Pub.Bytes(), Srn: src.Rn,
			}
			for h := 0; h < CryptoChainHops; h++ {
				hid := pop[rng.Intn(n)]
				m.SRR = append(m.SRR, wire.HopAttestation{
					IP:  hid.Addr,
					Sig: hid.Sign(wire.SigHop(hid.Addr, seq)),
					PK:  hid.Pub.Bytes(), Rn: hid.Rn,
				})
			}
			chains = append(chains, m)
		}
		stream := make([]*wire.RREQ, 0, fresh*CryptoDuplicates)
		for pass := 0; pass < CryptoDuplicates; pass++ {
			stream = append(stream, chains...)
		}
		cn.epochs = append(cn.epochs, stream)
	}
	return cn
}

// Round verifies one epoch's stream; every chain is honest, so any
// rejection is a bug (a cached run disagreeing with reality).
func (cn *CryptoNetwork) Round() {
	stream := cn.epochs[cn.next%len(cn.epochs)]
	cn.next++
	for _, m := range stream {
		if err := cn.Node.VerifyRouteRecord(m); err != nil {
			panic(fmt.Sprintf("scalebench: honest chain rejected: %v", err))
		}
	}
}

// RunCryptoScale measures the cached verifier at n nodes: logical
// verification requests, primitive verifications computed and memo hits.
// One warmup epoch runs untimed (mirroring the radio workload's index
// warmup), then `rounds` epochs are timed.
func RunCryptoScale(n int, seed int64, rounds int, now func() time.Time) ScaleResult {
	cn := BuildCryptoNetwork(n, true, seed, rounds+1)
	cn.Round() // warm: an untimed epoch grows the heap and the cache map first
	met := cn.Node.Metrics()
	baseReq, base := uint64(met.Get("crypto.verify")), cn.Node.VerifyCacheStats()
	wall := timed(rounds, cn.Round, now)
	stats := cn.Node.VerifyCacheStats()
	return ScaleResult{
		Cell: "crypto", Nodes: n, Rounds: rounds, Wall: wall,
		Counts: []Count{
			{"verify_requests", uint64(met.Get("crypto.verify")) - baseReq, "count"},
			{"verify_ops", stats.SigMisses - base.SigMisses, "count"},
			{"cache_hits", stats.SigHits - base.SigHits, "count"},
		},
	}
}
