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
//   - Mobility tracks are owned by their node's region but queried remotely
//     (lazily-extended legs mutate under a per-node mutex, the only lock on
//     the hot path; with only one region the track is read without it).
//     At each barrier the engine has every attached node's track drop the
//     legs no later query can reach (mobility.Track.Forget).
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
	// They drive the strip partition and the static-region pruning boxes;
	// nodes may move afterwards without affecting ownership.
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
	idx int
	sim *sim.Simulator
	med *radio.Medium

	// out collects boundary-crossing messages generated by this region's
	// events, in generation order. Only this region's loop appends; only
	// the engine thread (regions idle) drains.
	out []outMsg

	owned []radio.NodeID // node ids assigned to this region, ascending

	// Static-region pruning state, finalized before the first run: if
	// every owned node is provably immobile the region can be skipped by
	// remote broadcasts whose reach misses its bounding box.
	allStatic              bool
	minX, maxX, minY, maxY float64
	nNodes                 int
}

// rectDist2 returns the squared distance from p to the region's bounding
// box (0 if inside).
func (r *region) rectDist2(p geom.Point) float64 {
	dx := math.Max(math.Max(r.minX-p.X, p.X-r.maxX), 0)
	dy := math.Max(math.Max(r.minY-p.Y, p.Y-r.maxY), 0)
	return dx*dx + dy*dy
}

// nodeInfo is the engine's cross-region view of one node. The mutex guards
// the track only: lazily-extended tracks mutate their leg cache on query.
type nodeInfo struct {
	mu     sync.Mutex
	track  mobility.Track
	exists bool
}

func (ni *nodeInfo) position(t sim.Time) geom.Point {
	ni.mu.Lock()
	p := ni.track.Position(t)
	ni.mu.Unlock()
	return p
}

// Engine owns the regions, the barrier protocol and the clock.
type Engine struct {
	cfg       Config
	lookahead sim.Duration
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

	finalized bool
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
		cfg:       cfg,
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
		r := &region{idx: ri, sim: sim.New()}
		r.med = radio.New(r.sim, cfg.Radio, cfg.Seed, &regionRemote{e: e, idx: ri})
		for _, id := range order[at : at+size] {
			e.regionOf[id] = ri
			r.owned = append(r.owned, radio.NodeID(id))
		}
		sort.Slice(r.owned, func(a, b int) bool { return r.owned[a] < r.owned[b] })
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

// AddNode attaches a node to its region's medium. All nodes must be added
// before the first run; ownership is fixed by the build-time partition.
//
// Other regions query the track concurrently (PosAt), and lazily-extended
// tracks mutate their leg cache on query, so the owning medium reads it
// under the node's lock too — unless no other region exists, when it
// reads the track directly.
func (e *Engine) AddNode(id radio.NodeID, track mobility.Track, h radio.Handler) {
	ni := e.nodes[id]
	ni.track = track
	ni.exists = true
	pos := track.Position
	if len(e.regions) > 1 {
		pos = ni.position
	}
	e.regions[e.regionOf[id]].med.AddNode(id, pos, track.SpeedBound(), h)
}

// InjectNode admits a node born after the engine was built, assigning it
// the region whose build-time strip contains its spawn position (never
// rebalanced, like every ownership decision). Barrier-only: call it
// between runs, when every region has quiesced, so the engine's slices and
// the region's pruning box are mutated race-free. Ids must grow densely
// (the next id is len(nodes)). The caller builds the node against
// NodeSim/NodeMedium exactly as for a build-time node, then attaches it
// with AddNode.
func (e *Engine) InjectNode(id radio.NodeID, pos geom.Point) {
	if int(id) != len(e.nodes) {
		panic("shard: InjectNode ids must extend the node space densely")
	}
	ri := e.regionForX(pos.X)
	e.regionOf = append(e.regionOf, ri)
	e.nodes = append(e.nodes, &nodeInfo{})
	e.cfg.Positions = append(e.cfg.Positions, pos)
	r := e.regions[ri]
	r.owned = append(r.owned, id) // ids are dense, so owned stays ascending
	if e.finalized {
		r.nNodes++
		r.minX, r.maxX = math.Min(r.minX, pos.X), math.Max(r.maxX, pos.X)
		r.minY, r.maxY = math.Min(r.minY, pos.Y), math.Max(r.maxY, pos.Y)
		// The joiner's track is not known yet; dropping the static-region
		// claim only widens remote scans, never changes their outcome.
		r.allStatic = false
	}
}

// RemoveNode detaches a departed node: its radio port leaves the owning
// medium (in-flight frames to it drop harmlessly) and remote existence
// checks start failing, so no region ever posts to it again. Barrier-only,
// like InjectNode. The id is never reused; the region's pruning box keeps
// the departed position (boxes only ever grow — pruning stays sound,
// merely less tight).
func (e *Engine) RemoveNode(id radio.NodeID) {
	ni := e.nodes[id]
	if !ni.exists {
		return
	}
	ni.exists = false
	r := e.regions[e.regionOf[id]]
	r.med.RemoveNode(id)
	if e.finalized {
		r.nNodes--
	}
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
func (e *Engine) PosNow(id radio.NodeID) geom.Point { return e.nodes[id].position(e.now) }

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

// finalize computes the per-region pruning state from build positions.
// Called lazily on the first run, after all AddNode calls.
func (e *Engine) finalize() {
	if e.finalized {
		return
	}
	e.finalized = true
	for _, r := range e.regions {
		r.allStatic = true
		r.minX, r.minY = math.Inf(1), math.Inf(1)
		r.maxX, r.maxY = math.Inf(-1), math.Inf(-1)
		for _, id := range r.owned {
			ni := e.nodes[id]
			if !ni.exists {
				continue
			}
			r.nNodes++
			p := e.cfg.Positions[id]
			r.minX, r.maxX = math.Min(r.minX, p.X), math.Max(r.maxX, p.X)
			r.minY, r.maxY = math.Min(r.minY, p.Y), math.Max(r.maxY, p.Y)
			if ni.track.SpeedBound() > 0 {
				r.allStatic = false
			}
		}
	}
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

// RunUntil drives the engine to the deadline: it exchanges pending
// messages, then runs one parallel round under conservative horizons, until
// no region has an event at or before the deadline. It then sets the
// engine's clock and every region clock to the deadline, and has every
// attached node's track forget the legs no later query can reach.
func (e *Engine) RunUntil(deadline sim.Time) {
	e.finalize()
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
	return r.e.nodes[id].position(t)
}

func (r *regionRemote) ScanRegions(from geom.Point, reach float64, buf []int) []int {
	for j, reg := range r.e.regions {
		if j == r.idx || reg.nNodes == 0 {
			continue
		}
		if reg.allStatic && reg.rectDist2(from) > reach*reach {
			continue
		}
		buf = append(buf, j)
	}
	return buf
}

func (r *regionRemote) PostScan(target int, msg radio.ScanMsg) {
	self := r.e.regions[r.idx]
	self.out = append(self.out, outMsg{scan: true, target: target, s: msg})
	self.sim.TightenHorizon(msg.At + sim.Time(r.e.lookahead))
}

func (r *regionRemote) PostDeliver(id radio.NodeID, msg radio.DeliverMsg) {
	self := r.e.regions[r.idx]
	self.out = append(self.out, outMsg{target: r.e.regionOf[id], d: msg})
	self.sim.TightenHorizon(msg.At + sim.Time(r.e.lookahead))
}
