// Package shard implements the deterministic simulation engine every
// scenario runs on: the spatial area is partitioned into vertical strips of
// equal node count, each strip owning its own event loop (sim.Simulator),
// radio medium and node state, with no cross-region pointers except
// immutable messages. One region is the default; more regions change only
// wall time, never results.
//
// # Synchronization
//
// Regions advance under conservative lookahead derived from the radio
// propagation delay L: a frame serialized by region j at time u cannot
// affect any other region before u + L, so region i may safely process
// every event strictly below
//
//	h_i = min(C, min_{j != i} next_j + L)
//
// where next_j is region j's earliest pending event and C, one past the run
// deadline, caps the round at the deadline. The region holding the
// minimum next always has h > next, so every round fires at least one event
// and the loop cannot stall. Messages generated during a round carry
// delivery times >= next_j + L >= h_i, so injecting them at the next
// barrier — before any region has advanced that far — is always in each
// target's future.
//
// The round-start horizon alone is not safe against feedback: it is
// computed from the peers' *then-pending* events, but a message this
// region sends mid-round at time u wakes a peer at u + L, and the peer's
// reaction can arrive back as early as u + 2L — a time the horizon never
// accounted for, because the peer looked idle when the round began. So a
// region's first boundary-crossing send at u tightens its own remaining
// horizon to u + 2L (sim.TightenHorizon); the next round's recomputed
// horizons — which now see the injected message as the peer's pending
// event — take over from there. Without the cap, a region whose peers are
// idle free-runs to the round limit and receives every reply (route
// replies, end-to-end acks) in its virtual past, long after the protocol
// timers waiting on them have expired.
//
// # Determinism
//
// Events are keyed (at, owner, seq) where the owner is the node id + 1.
// Ownership is inherited: an event scheduled from inside another event
// belongs to the same causal stream, so per-owner sequences depend only on
// that node's own history, never on how nodes were interleaved across
// regions. Cross-boundary messages are stamped with the *sender's* owner,
// placing them at the same position in the (at, owner, seq) order at every
// shard count. The radio's draws are content hashes (see package radio), so
// no random stream is consumed in a region-count-dependent order.
//
// # Boundary crossings
//
// The engine alone decides which regions a frame reaches. A region's
// medium hands the engine every broadcast (radio.Remote.PostScan), and
// the engine posts it to each other region that may hold a receiver, with
// one copy of the frame shared between them; a unicast goes only to its
// addressee's region. One rule covers static, moving and joined regions
// alike. Each region keeps the bounding box of its nodes' positions at the
// instants they attached, at build or at a barrier join, and the largest
// speed bound ever attached to it; neither ever shrinks. A broadcast sent
// at time t skips a region that holds no live node, or whose box lies
// farther than Range + speed·t from the transmitter, since no node of
// that region can then be in range. The rule reads the send instant and
// the attach history only, so where runs stop moves no event. A lone
// region has nothing to cross into, and its medium gets no Remote.
//
// # One clock
//
// The engine has no event loop of its own. Its clock is the deadline of
// the last RunUntil, and every region clock is set to that deadline when
// the run returns. A barrier is simply where RunUntil stops: every region
// has run each event at or before the deadline and none after it, so the
// caller may read any region's state, admit or remove nodes and schedule
// node-owned events. Where a caller places its barriers changes no result.
//
// # Region ownership rules
//
// State is owned by exactly one region and touched only from that region's
// event loop:
//
//   - A node's core state, ports, queues and metrics belong to the region
//     the node was assigned to at build time (by x-sorted strip). Ownership
//     never migrates, even if the node physically roams into another strip —
//     position only affects radio reachability, which flows via messages.
//   - Mobility tracks are owned by their node's region but queried remotely,
//     and read without a lock. A track extends its legs lazily, but only
//     past the latest instant queried so far (mobility.Track), and no query
//     inside a run names an instant past the run's deadline; RunUntil
//     extends every track to its deadline before any region runs, so during
//     the run every read is pure. At each barrier the engine has every
//     attached node's track drop the legs no later query can reach
//     (mobility.Track.Forget).
package shard

import (
	"math"
	"sort"
	"sync"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
)

// Config parameterizes an Engine.
type Config struct {
	// Seed is the run seed every region's medium keys its radio draws
	// with.
	Seed int64
	// Regions is the shard count; values < 1 are treated as 1.
	Regions int
	// Radio configures every region's medium. PropDelay doubles as the
	// conservative lookahead and is normalized to at least 1ns at every
	// shard count, so results stay comparable across counts.
	Radio radio.Config
	// Positions are the build-time node positions, indexed by NodeID.
	// They drive only the strip partition: nodes may move afterwards
	// without affecting ownership, and which regions a broadcast reaches
	// follows from the positions nodes attach at (Engine.AddNode).
	Positions []geom.Point
}

// outMsg is one enqueued boundary crossing, drained at the next barrier.
type outMsg struct {
	scan   bool
	target int
	s      radio.ScanMsg
	d      radio.DeliverMsg
}

type region struct {
	sim *sim.Simulator
	med *radio.Medium

	// out collects boundary-crossing messages generated by this region's
	// events, in generation order. Only this region's loop appends; only
	// the engine thread (regions idle) drains.
	out []outMsg

	// Reach state, grown as nodes attach and never shrunk: the bounding
	// box of every node's position at its attach instant, and the largest
	// speed bound ever attached. At time t no node of the region lies
	// farther than speed·t from the box.
	minX, maxX, minY, maxY float64
	speed                  float64
}

// attach grows the region's reach state by a node attached at p with the
// given speed bound.
func (r *region) attach(p geom.Point, speed float64) {
	r.minX, r.maxX = math.Min(r.minX, p.X), math.Max(r.maxX, p.X)
	r.minY, r.maxY = math.Min(r.minY, p.Y), math.Max(r.maxY, p.Y)
	r.speed = math.Max(r.speed, speed)
}

// reaches reports whether a broadcast sent from `from` at `sent`, heard
// up to rng metres away, may reach a node of the region: one is live, and
// the box lies within rng + speed·sent of the transmitter. It reads only
// state that changes at barriers, so it is race-free during a run and
// depends on the attach history alone, never on where runs stop.
func (r *region) reaches(from geom.Point, sent sim.Time, rng float64) bool {
	if r.med.Live() == 0 {
		return false
	}
	dx := math.Max(math.Max(r.minX-from.X, from.X-r.maxX), 0)
	dy := math.Max(math.Max(r.minY-from.Y, from.Y-r.maxY), 0)
	reach := rng + r.speed*sent.Seconds()
	return dx*dx+dy*dy <= reach*reach
}

// nodeInfo is the engine's cross-region view of one node.
type nodeInfo struct {
	track  mobility.Track
	exists bool
}

// Engine owns the regions, the barrier protocol and the clock.
type Engine struct {
	lookahead sim.Duration
	reach     float64 // every region medium's effective radio range
	regions   []*region
	regionOf  []int
	nodes     []*nodeInfo

	// now is the engine's clock: the deadline of the last RunUntil.
	now sim.Time

	// splits are the build-partition strip boundaries: splits[i] is the
	// largest build x owned by region i (for i < Regions-1). Nodes injected
	// at runtime are assigned by binary search against them, so ownership
	// of a joining node is a pure function of its spawn position — the same
	// at every shard count and under snapshot replay.
	splits []float64

	nexts    []sim.Time // scratch: per-region earliest pending event
	horizons []sim.Time // scratch: per-region safe horizon
}

// inf sorts after every real event time.
const inf = sim.Time(math.MaxInt64)

// New builds an engine with len(cfg.Positions) node slots partitioned into
// cfg.Regions x-sorted strips of equal node count (ties broken by id, so
// the partition is deterministic).
func New(cfg Config) *Engine {
	if cfg.Regions < 1 {
		cfg.Regions = 1
	}
	if cfg.Radio.PropDelay < time.Nanosecond {
		// Zero propagation delay means zero lookahead and no safe
		// parallel horizon. Normalize at EVERY shard count (including 1)
		// so engine runs stay byte-comparable across counts.
		cfg.Radio.PropDelay = time.Nanosecond
	}
	n := len(cfg.Positions)
	e := &Engine{
		lookahead: sim.Duration(cfg.Radio.PropDelay),
		regionOf:  make([]int, n),
		nodes:     make([]*nodeInfo, n),
		nexts:     make([]sim.Time, cfg.Regions),
		horizons:  make([]sim.Time, cfg.Regions),
	}
	for i := range e.nodes {
		e.nodes[i] = &nodeInfo{}
	}

	// Partition: sort ids by build x (tie: id), then cut into Regions
	// contiguous strips, the first n%Regions strips one node larger.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := cfg.Positions[order[a]], cfg.Positions[order[b]]
		if pa.X != pb.X {
			return pa.X < pb.X
		}
		return order[a] < order[b]
	})

	e.regions = make([]*region, cfg.Regions)
	base, extra := n/cfg.Regions, n%cfg.Regions
	at := 0
	for ri := range e.regions {
		size := base
		if ri < extra {
			size++
		}
		r := &region{sim: sim.New(), minX: math.Inf(1), maxX: math.Inf(-1), minY: math.Inf(1), maxY: math.Inf(-1)}
		var remote radio.Remote // nil for a lone region: nothing crosses
		if cfg.Regions > 1 {
			remote = &regionRemote{e: e, idx: ri}
		}
		r.med = radio.New(r.sim, cfg.Radio, cfg.Seed, remote)
		for _, id := range order[at : at+size] {
			e.regionOf[id] = ri
		}
		at += size
		e.regions[ri] = r
		if ri < cfg.Regions-1 {
			last := math.Inf(-1)
			if size > 0 {
				last = cfg.Positions[order[at-1]].X
			} else if ri > 0 {
				last = e.splits[ri-1]
			}
			e.splits = append(e.splits, last)
		}
	}
	e.reach = e.regions[0].med.Config().Range
	return e
}

// regionForX returns the region owning a runtime-injected node spawned at
// build x — the strip whose build interval contains it.
func (e *Engine) regionForX(x float64) int {
	return sort.SearchFloat64s(e.splits, x)
}

// Regions returns the shard count.
func (e *Engine) Regions() int { return len(e.regions) }

// RegionOf returns the region index owning the node.
func (e *Engine) RegionOf(id radio.NodeID) int { return e.regionOf[id] }

// NodeSim returns the region simulator that owns the node. Constructing a
// node against it (wrapped in SetOwner(id+1)) puts every event the node
// ever schedules into its own causal stream.
func (e *Engine) NodeSim(id radio.NodeID) *sim.Simulator { return e.regions[e.regionOf[id]].sim }

// NodeMedium returns the region medium the node must transmit on.
func (e *Engine) NodeMedium(id radio.NodeID) *radio.Medium { return e.regions[e.regionOf[id]].med }

// AddNode attaches a node to its region's medium, at build or at a
// barrier after InjectNode; ownership is fixed by the build-time
// partition. The node's position at the engine's clock and its speed bound
// join its region's reach state.
//
// The owning medium and other regions (PosAt) read the track concurrently
// during a run, without a lock: RunUntil has extended it to the run's
// deadline first, so no read inside the run mutates it.
func (e *Engine) AddNode(id radio.NodeID, track mobility.Track, h radio.Handler) {
	ni := e.nodes[id]
	ni.track = track
	ni.exists = true
	r := e.regions[e.regionOf[id]]
	r.attach(track.Position(e.now), track.SpeedBound())
	r.med.AddNode(id, track.Position, track.SpeedBound(), h)
}

// InjectNode admits a node born after the engine was built, assigning it
// the region whose build-time strip contains its spawn position (never
// rebalanced, like every ownership decision). Barrier-only: call it
// between runs, when every region has quiesced, so the engine's slices
// are mutated race-free. Ids must grow densely (the next id is
// len(nodes)). The caller builds the node against NodeSim/NodeMedium
// exactly as for a build-time node, then attaches it with AddNode.
func (e *Engine) InjectNode(id radio.NodeID, pos geom.Point) {
	if int(id) != len(e.nodes) {
		panic("shard: InjectNode ids must extend the node space densely")
	}
	e.regionOf = append(e.regionOf, e.regionForX(pos.X))
	e.nodes = append(e.nodes, &nodeInfo{})
}

// RemoveNode detaches a departed node: its radio port leaves the owning
// medium (in-flight frames to it drop harmlessly) and remote existence
// checks start failing, so no region ever posts to it again. Barrier-only,
// like InjectNode. The id is never reused; the region's reach state keeps
// the departed node (it only ever grows, so pruning stays sound, merely
// less tight).
func (e *Engine) RemoveNode(id radio.NodeID) {
	ni := e.nodes[id]
	if !ni.exists {
		return
	}
	ni.exists = false
	e.regions[e.regionOf[id]].med.RemoveNode(id)
}

// ScheduleOwnedAt schedules fn at time at on the node's region simulator,
// stamped with the node's owner id. Barrier-only, like InjectNode: every
// region clock is then the engine's, so at >= Now() is in the region's
// future.
func (e *Engine) ScheduleOwnedAt(id radio.NodeID, at sim.Time, fn func()) {
	rs := e.regions[e.regionOf[id]].sim
	prev := rs.SetOwner(uint32(id) + 1)
	rs.At(at, fn)
	rs.SetOwner(prev)
}

// PosNow returns the node's position at the engine's clock.
func (e *Engine) PosNow(id radio.NodeID) geom.Point { return e.nodes[id].track.Position(e.now) }

// Now returns the engine's clock: the deadline of the last RunUntil.
func (e *Engine) Now() sim.Time { return e.now }

// Stats sums the link-layer counters of every region medium.
func (e *Engine) Stats() radio.Stats {
	var t radio.Stats
	for _, r := range e.regions {
		s := r.med.Stats()
		t.TxFrames += s.TxFrames
		t.TxBytes += s.TxBytes
		t.RxFrames += s.RxFrames
		t.LostFrames += s.LostFrames
		t.QueueDrops += s.QueueDrops
		t.UnicastFails += s.UnicastFails
		t.Retries += s.Retries
		t.BroadcastSent += s.BroadcastSent
		t.UnicastSent += s.UnicastSent
	}
	return t
}

// Events returns the total number of events processed across every region
// simulator.
func (e *Engine) Events() uint64 {
	var t uint64
	for _, r := range e.regions {
		t += r.sim.Processed()
	}
	return t
}

// exchange drains every region's out queue in region index order, injecting
// each message into its target region. Runs on the engine thread with all
// regions idle; injection order is deterministic because queue contents
// depend only on each region's own event order.
func (e *Engine) exchange() {
	for _, r := range e.regions {
		for i := range r.out {
			m := &r.out[i]
			if m.scan {
				e.regions[m.target].med.InjectScan(m.s)
			} else {
				e.regions[m.target].med.InjectDeliver(m.d)
			}
			r.out[i] = outMsg{} // drop frame references
		}
		r.out = r.out[:0]
	}
}

// runRegions runs one parallel round: each region processes events strictly
// below its own conservative horizon min(C, min_{j != i} next_j + L). It
// reports false, running nothing, when no region has an event before c:
// the region holding the earliest event always has one below its horizon.
func (e *Engine) runRegions(c sim.Time) bool {
	for i, r := range e.regions {
		if t, ok := r.sim.NextAt(); ok {
			e.nexts[i] = t
		} else {
			e.nexts[i] = inf
		}
	}
	// Two smallest nexts give min_{j != i} next_j for every i.
	min1, min2, argmin := inf, inf, -1
	for i, t := range e.nexts {
		if t < min1 {
			min1, min2, argmin = t, min1, i
		} else if t < min2 {
			min2 = t
		}
	}
	l := sim.Time(e.lookahead)
	for i := range e.horizons {
		other := min1
		if i == argmin {
			other = min2
		}
		h := c
		if other < inf-l && other+l < h {
			h = other + l
		}
		e.horizons[i] = h
	}
	// Sparse rounds — typical when pending events sit further apart than
	// the lookahead — leave work below the horizon in a single region; run
	// it inline instead of paying a goroutine spawn + join per event.
	eligible, last := 0, -1
	for i := range e.regions {
		if e.nexts[i] < e.horizons[i] {
			eligible, last = eligible+1, i
		}
	}
	if eligible <= 1 {
		if eligible == 1 {
			e.regions[last].sim.RunBelow(e.horizons[last])
		}
		return eligible == 1
	}
	var wg sync.WaitGroup
	for i, r := range e.regions {
		if e.nexts[i] >= e.horizons[i] {
			continue // nothing below the horizon
		}
		wg.Add(1)
		go func(r *region, h sim.Time) {
			defer wg.Done()
			r.sim.RunBelow(h)
		}(r, e.horizons[i])
	}
	wg.Wait()
	return true
}

// RunUntil drives the engine to the deadline: it extends every attached
// node's track to the deadline, then exchanges pending messages and runs
// one parallel round under conservative horizons, until no region has an
// event at or before the deadline. It then sets the engine's clock and
// every region clock to the deadline, and has every attached node's track
// forget the legs no later query can reach.
//
// Every position query inside the run names an instant at or before the
// deadline, so after the extension no query mutates a track and regions
// read each other's tracks without a lock.
func (e *Engine) RunUntil(deadline sim.Time) {
	for _, ni := range e.nodes {
		if ni.exists {
			ni.track.Position(deadline)
		}
	}
	for {
		e.exchange()
		if !e.runRegions(deadline + 1) {
			break
		}
	}
	if e.now < deadline {
		e.now = deadline
	}
	for _, r := range e.regions {
		r.sim.AdvanceTo(deadline)
	}
	// Every later event is at or after the deadline, but a cross-region
	// broadcast still in flight samples its receivers at its serialization
	// end, up to one lookahead before it lands.
	keep := deadline.Add(-e.lookahead)
	for _, ni := range e.nodes {
		if ni.exists {
			ni.track.Forget(keep)
		}
	}
}

// RunFor advances the engine by d from its clock.
func (e *Engine) RunFor(d sim.Duration) { e.RunUntil(e.now.Add(d)) }

// regionRemote adapts one region's view of the rest of the network to the
// radio.Remote interface. Every method is called from inside the region's
// event loop, concurrently with other regions' loops.
type regionRemote struct {
	e   *Engine
	idx int
}

func (r *regionRemote) Exists(id radio.NodeID) bool {
	return int(id) >= 0 && int(id) < len(r.e.nodes) && r.e.nodes[id].exists
}

func (r *regionRemote) PosAt(id radio.NodeID, t sim.Time) geom.Point {
	return r.e.nodes[id].track.Position(t)
}

// PostScan posts a broadcast to every other region it may reach (see
// region.reaches), sharing one copy of its frame between them.
func (r *regionRemote) PostScan(msg radio.ScanMsg) {
	self, posted := r.e.regions[r.idx], false
	for j, reg := range r.e.regions {
		if j == r.idx || !reg.reaches(msg.Pos, msg.Sent, r.e.reach) {
			continue
		}
		if !posted {
			msg.Frame, posted = append([]byte(nil), msg.Frame...), true
		}
		self.out = append(self.out, outMsg{scan: true, target: j, s: msg})
	}
	if posted {
		self.sim.TightenHorizon(msg.At + sim.Time(r.e.lookahead))
	}
}

func (r *regionRemote) PostDeliver(msg radio.DeliverMsg) {
	self := r.e.regions[r.idx]
	msg.Frame = append([]byte(nil), msg.Frame...)
	self.out = append(self.out, outMsg{target: r.e.regionOf[msg.To], d: msg})
	self.sim.TightenHorizon(msg.At + sim.Time(r.e.lookahead))
}
