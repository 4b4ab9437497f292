// Package radio models the shared wireless medium of the MANET.
//
// The model is deliberately simple but exercises everything the protocol
// observes: unit-disk connectivity from node positions, per-receiver random
// loss, half-duplex serialization of each node's transmissions at a
// configurable bitrate, contention jitter before broadcasts, and link-layer
// acknowledgements for unicasts (modeling the 802.11 ACK, which is what DSR
// route maintenance uses to detect broken links).
//
// Every random draw — contention jitter and the per-receiver loss process —
// is a content hash keyed by (Config.Seed, transmitter, the
// transmitter's transmission sequence, receiver). A draw therefore does not
// depend on the order the medium visits receivers, on other media sharing
// the simulator, or on how the sharded engine split the network, and the
// medium consumes no sequential random stream.
//
// Nodes are identified by a NodeID playing the role of the interface's MAC
// address; IP-to-NodeID resolution is the upper layer's concern.
//
// Receivers are found through a uniform spatial hash grid that answers
// AppendNeighbors and broadcast fan-out from the cells around the
// transmitter, and every transmission rides one pooled path: frame buffers
// come from a per-medium size-class pool and each broadcast's surviving
// receivers share one delivery event. The package tests hold the grid to a
// brute-force neighbour oracle computed from the raw position functions.
package radio

import (
	"math"
	"math/bits"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/pool"
	"sbr6/internal/sim"
)

// NodeID identifies a radio interface (the simulated MAC address).
type NodeID int

// Handler receives link-layer frames addressed to (or overheard by) a node.
type Handler interface {
	// Deliver is invoked once per received frame with the transmitter's
	// NodeID and the payload. The payload slice must not be mutated and
	// must not be retained past Deliver's return: under the pooled wire
	// path one encoded frame is shared by every receiver of a broadcast
	// and recycled once the last delivery completes. A handler that needs
	// the bytes later must copy them (wire.Decode already copies every
	// variable-length field, so decoding counts as copying).
	Deliver(from NodeID, payload []byte)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, payload []byte)

// Deliver implements Handler.
func (f HandlerFunc) Deliver(from NodeID, payload []byte) { f(from, payload) }

// PositionFunc reports a node's position at a virtual time (mobility.Track).
type PositionFunc func(t sim.Time) geom.Point

// Config parameterizes the medium.
type Config struct {
	Range           float64       // unit-disk reception radius in metres
	BitrateBps      float64       // transmission serialization rate; <=0 means instantaneous
	LossRate        float64       // independent per-receiver frame loss probability [0,1)
	PropDelay       time.Duration // fixed propagation + processing latency
	BroadcastJitter time.Duration // uniform random delay before any transmission
	MaxQueueDelay   time.Duration // frames that would start later than now+MaxQueueDelay are dropped (0 = unlimited)

	// UnicastRetries is the number of link-layer retransmissions after an
	// unacknowledged unicast (the 802.11 retry counter). Zero keeps every
	// loss visible to the routing layer; broadcasts are never retried.
	UnicastRetries int

	// PoisonFrames (debug) fills every released frame with a marker byte
	// so a handler that retained a frame slice past Deliver's return sees
	// garbage instead of silently reading recycled memory. The retention
	// tests run under it.
	PoisonFrames bool

	// Seed keys every draw of the medium (contention jitter and the loss
	// process). The engine derives it from the scenario seed when zero; a
	// caller of New must set it from its own run seed, or every run draws
	// the same jitter and loss.
	Seed uint64

	// Remote, when non-nil, is the sharded engine's view of nodes that
	// live in other regions: transmissions that may reach across the
	// region boundary are handed off through it instead of silently
	// stopping at the local port table.
	Remote Remote
}

// Remote is implemented by the sharded engine (one adapter per region).
// It answers pure-past queries about nodes owned by other regions —
// positions and up/down state at or before the caller's current virtual
// time — and transports boundary-crossing frames. All methods must be
// safe to call while other regions execute concurrently.
type Remote interface {
	// Exists reports whether the id is attached anywhere in the network.
	Exists(id NodeID) bool
	// PosAt returns the node's position at time t (t never exceeds the
	// calling region's safe horizon, so the answer is final).
	PosAt(id NodeID, t sim.Time) geom.Point
	// DownAt reports the node's down state at time t. Down toggles are
	// barrier-synchronized by the engine, so the answer is final.
	DownAt(id NodeID, t sim.Time) bool
	// ScanRegions appends the indices of regions other than the caller's
	// own whose nodes could be within reach of a transmitter at from,
	// in increasing order, and returns the extended slice.
	ScanRegions(from geom.Point, reach float64, buf []int) []int
	// PostScan enqueues a boundary-crossing broadcast for the region.
	PostScan(region int, msg ScanMsg)
	// PostDeliver enqueues a boundary-crossing unicast delivery for the
	// region owning id.
	PostDeliver(id NodeID, msg DeliverMsg)
}

// ScanMsg is a broadcast crossing a region boundary: everything a foreign
// region needs to evaluate its own receivers exactly as the transmitter's
// region evaluated the local ones. Frame is a single read-only copy shared
// by every target region; receivers borrow it during Deliver and must not
// mutate or retain it.
type ScanMsg struct {
	From  NodeID
	Pos   geom.Point // transmitter position at serialization end
	Sent  sim.Time   // serialization end — receivers are sampled here
	At    sim.Time   // delivery instant (Sent + PropDelay)
	TxSeq uint64     // transmitter's per-port transmission sequence
	Frame []byte
}

// DeliverMsg is a unicast delivery crossing a region boundary. The loss
// and range outcome was already decided sender-side (the link-layer ACK
// resolves at serialization end, exactly like a local unicast); the target
// region only delivers the frame if the receiver is still up.
type DeliverMsg struct {
	From  NodeID
	To    NodeID
	At    sim.Time
	Frame []byte
}

// RefreshFunc reports when a node's track next needs its grid bucket
// refreshed (mobility.Refresher.NextRefresh); -1 means never again.
type RefreshFunc func(now sim.Time, slop float64) sim.Time

// DefaultConfig mimics a 2 Mb/s 802.11-style radio with a 250 m range.
func DefaultConfig() Config {
	return Config{
		Range:           250,
		BitrateBps:      2e6,
		LossRate:        0,
		PropDelay:       5 * time.Microsecond,
		BroadcastJitter: 2 * time.Millisecond,
		MaxQueueDelay:   500 * time.Millisecond,
	}
}

// Stats aggregates link-layer counters for overhead accounting.
type Stats struct {
	TxFrames      uint64
	TxBytes       uint64
	RxFrames      uint64
	LostFrames    uint64 // in range but dropped by the loss process
	QueueDrops    uint64 // dropped because the transmit queue was saturated
	UnicastFails  uint64 // unicast attempts with no ACK (out of range, down, or lost)
	Retries       uint64 // link-layer retransmissions triggered
	BroadcastSent uint64
	UnicastSent   uint64
}

type port struct {
	id        NodeID
	ord       int // attachment ordinal; receiver iteration is sorted by it
	pos       PositionFunc
	handler   Handler
	busyUntil sim.Time
	down      bool
	txSeq     uint64 // transmissions attempted so far; keys the medium's draws
}

// Medium is the shared channel all nodes transmit on.
//
// Receiver lookup runs through a uniform spatial hash grid that caches one
// bucketed position per node and re-buckets lazily: nodes with a declared
// speed bound (SetSpeedBound) are swept at most once per staleness quantum,
// and queries widen their radius by the maximum drift a bounded node can
// accumulate within that quantum, so pruning never loses a true neighbour.
// Nodes without a bound are re-bucketed exactly whenever the clock moved —
// always correct, but worth avoiding on the hot path.
type Medium struct {
	sim   *sim.Simulator
	cfg   Config
	ports map[NodeID]*port
	byOrd []*port // ports indexed by attachment ordinal; nil = vacated slot
	live  int     // attached (non-removed) ports
	stats Stats

	// freeOrds are ordinals vacated by RemoveNode, reused LIFO by the next
	// AddNode so churning sessions hold the per-ord parallel arrays at the
	// peak live population instead of growing with cumulative joins.
	freeOrds []int

	// Spatial index state.
	grid        *geom.Grid
	speeds      []float64 // per-ord speed bound; < 0 = unbounded/unknown
	nUnbounded  int       // how many speeds are < 0
	maxSpeed    float64   // max declared bound, never decreases
	lastSweep   sim.Time  // last re-bucket sweep of bounded movers
	unboundedAt sim.Time  // instant the unbounded nodes were last re-bucketed
	candBits    []uint64  // reusable candidate bitset (single-threaded sim)

	// Event-driven re-bucketing: tracks that report their own refresh
	// instants (mobility.Refresher) get a per-node event chain instead of
	// riding the O(movers) sweep. Only bounded movers WITHOUT a refresher
	// remain sweep candidates — under sharding a sweep is region-local
	// and still correct, but the chains keep re-bucketing cost
	// proportional to actual motion.
	refreshers   []RefreshFunc   // per-ord; nil = no refresher
	refreshOn    []bool          // per-ord; a chain event is pending
	refreshSt    []*refreshState // per-ord recycled chain event argument
	nSweepMovers int             // bounded movers with no refresher
	scanRegions  []int           // reusable Remote.ScanRegions buffer

	// Pooled wire path state: the frame buffer pool plus free lists of
	// transmit jobs and delivery batches. All strictly per-medium — the
	// single-goroutine discipline the sharded engine depends on.
	pool        *pool.Pool
	freeJobs    *txJob
	freeBatches *deliveryBatch
}

// New creates a medium on the given simulator.
func New(s *sim.Simulator, cfg Config) *Medium {
	if cfg.Range <= 0 {
		cfg.Range = 250
	}
	m := &Medium{sim: s, cfg: cfg, ports: make(map[NodeID]*port),
		grid: geom.NewGrid(cfg.Range), pool: pool.New()}
	m.pool.SetPoison(cfg.PoisonFrames)
	return m
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a snapshot of the link-layer counters.
func (m *Medium) Stats() Stats { return m.stats }

// AddNode attaches a node to the medium. Adding the same id twice panics:
// that is always a harness bug. New nodes are treated as unbounded movers
// until SetSpeedBound declares otherwise. Ordinals vacated by RemoveNode
// are reused, so a joiner may iterate where a departed node used to —
// receiver order stays a deterministic function of the attach/remove
// history.
func (m *Medium) AddNode(id NodeID, pos PositionFunc, h Handler) {
	if _, dup := m.ports[id]; dup {
		panic("radio: duplicate NodeID")
	}
	if pos == nil || h == nil {
		panic("radio: nil position or handler")
	}
	p := &port{id: id, pos: pos, handler: h}
	if n := len(m.freeOrds); n > 0 {
		p.ord = m.freeOrds[n-1]
		m.freeOrds = m.freeOrds[:n-1]
		m.byOrd[p.ord] = p
		m.speeds[p.ord] = -1
	} else {
		p.ord = len(m.byOrd)
		m.byOrd = append(m.byOrd, p)
		m.speeds = append(m.speeds, -1)
		m.refreshers = append(m.refreshers, nil)
		m.refreshOn = append(m.refreshOn, false)
		m.refreshSt = append(m.refreshSt, nil)
	}
	m.ports[id] = p
	m.live++
	m.nUnbounded++
	m.grid.Set(p.ord, pos(m.sim.Now()))
}

// RemoveNode detaches a node for good: it stops receiving immediately, its
// grid bucket and speed/refresher accounting are reclaimed, and its ordinal
// is recycled to the next AddNode. In-flight state is handled by the
// tombstone: the vacated port is marked down, so pending transmit jobs
// drop (releasing their pooled frames) and pending delivery batches skip
// it — exactly the paths a mid-transmission SetDown already exercises.
// The caller must stop the node's own transmissions first (a removed
// sender panics, the same as an unknown one); under the sharded engine
// removal happens only at barriers, while the region is quiescent.
func (m *Medium) RemoveNode(id NodeID) {
	p, ok := m.ports[id]
	if !ok {
		return
	}
	delete(m.ports, id)
	p.down = true // tombstone for in-flight jobs and batches
	ord := p.ord
	wasSweep := m.sweepMover(ord)
	if m.speeds[ord] < 0 {
		m.nUnbounded--
	}
	m.speeds[ord] = 0
	m.refreshers[ord] = nil
	// Orphan a pending refresh chain event: it exits when it fires, and
	// the ordinal's next occupant starts a chain of its own instead of
	// waiting out the departed node's schedule.
	m.refreshSt[ord] = nil
	m.refreshOn[ord] = false
	m.noteSweepChange(ord, wasSweep)
	m.byOrd[ord] = nil
	m.freeOrds = append(m.freeOrds, ord)
	m.live--
	m.grid.Remove(ord)
}

// Live reports the number of attached (non-removed) ports — the churn
// conformance suite's occupancy check.
func (m *Medium) Live() int { return m.live }

// SetSpeedBound declares that the node's position function never moves
// faster than metresPerSec (zero = static). The spatial grid relies on the
// bound to re-bucket lazily instead of on every query; declare it before
// the node starts moving, and never below the node's true top speed.
// Negative, NaN or infinite values mark the node unbounded again.
func (m *Medium) SetSpeedBound(id NodeID, metresPerSec float64) {
	p, ok := m.ports[id]
	if !ok {
		return
	}
	if metresPerSec < 0 || math.IsNaN(metresPerSec) || math.IsInf(metresPerSec, 0) {
		metresPerSec = -1
	}
	old := m.speeds[p.ord]
	if old < 0 && metresPerSec >= 0 {
		m.nUnbounded--
	} else if old >= 0 && metresPerSec < 0 {
		m.nUnbounded++
	}
	wasSweep := m.sweepMover(p.ord)
	m.speeds[p.ord] = metresPerSec
	if metresPerSec > m.maxSpeed {
		m.maxSpeed = metresPerSec
	}
	m.noteSweepChange(p.ord, wasSweep)
	m.startRefresh(p.ord)
}

// sweepMover reports whether the ord still depends on the lazy sweep: a
// bounded mover whose track does not announce its own refresh instants.
func (m *Medium) sweepMover(ord int) bool {
	return m.speeds[ord] > 0 && m.refreshers[ord] == nil
}

func (m *Medium) noteSweepChange(ord int, was bool) {
	if is := m.sweepMover(ord); is != was {
		if is {
			m.nSweepMovers++
		} else {
			m.nSweepMovers--
		}
	}
}

// SetRefresher registers the node's track as self-refreshing: the medium
// drives a per-node event chain that re-buckets the node's grid position
// exactly when the track may have drifted past the staleness slop, taking
// the node off the O(movers) sweep. fn is mobility.Refresher.NextRefresh;
// nil unregisters. Results are byte-identical either way — the grid
// remains a slop-widened superset filtered by exact positions, and chain
// events touch nothing but the index.
func (m *Medium) SetRefresher(id NodeID, fn RefreshFunc) {
	p, ok := m.ports[id]
	if !ok {
		return
	}
	was := m.sweepMover(p.ord)
	m.refreshers[p.ord] = fn
	m.noteSweepChange(p.ord, was)
	m.startRefresh(p.ord)
}

// refreshSlop is the drift budget handed to refreshers. Identical to the
// query slop so the superset invariant holds; the guard covers a refresher
// registered before any speed bound is declared.
func (m *Medium) refreshSlop() float64 {
	if s := m.slop(); s > 0 {
		return s
	}
	return m.cfg.Range * 0.5
}

// refreshState is the recycled argument of one node's chain events. It
// belongs to the node occupying ord, not to the ordinal: RemoveNode
// detaches it, so an event still carrying it is recognised as stale.
type refreshState struct {
	m   *Medium
	ord int
}

// startRefresh begins the node's re-bucket chain if it needs one and does
// not have one pending.
func (m *Medium) startRefresh(ord int) {
	if m.refreshOn[ord] || m.refreshers[ord] == nil || m.speeds[ord] <= 0 {
		return
	}
	next := m.refreshers[ord](m.sim.Now(), m.refreshSlop())
	if next < 0 {
		return
	}
	m.refreshOn[ord] = true
	st := m.refreshSt[ord]
	if st == nil {
		st = &refreshState{m: m, ord: ord}
		m.refreshSt[ord] = st
	}
	m.scheduleRefresh(st, next)
}

// scheduleRefresh queues the next chain event, stamped with the chained
// node's own scheduling owner — a chain started while another node's event
// was executing must not ride that node's owner key.
func (m *Medium) scheduleRefresh(st *refreshState, at sim.Time) {
	prev := m.sim.SetOwner(uint32(m.byOrd[st.ord].id) + 1)
	m.sim.DoAtArg(at, runRefresh, st)
	m.sim.SetOwner(prev)
}

func runRefresh(v any) {
	st := v.(*refreshState)
	m := st.m
	if m.refreshSt[st.ord] != st {
		return // its node was removed
	}
	m.refreshOn[st.ord] = false
	if m.refreshers[st.ord] == nil {
		return
	}
	now := m.sim.Now()
	m.grid.Set(st.ord, m.byOrd[st.ord].pos(now))
	next := m.refreshers[st.ord](now, m.refreshSlop())
	if next < 0 {
		return
	}
	if next <= now {
		next = now + 1 // refresher rounding guard: the chain must advance
	}
	m.refreshOn[st.ord] = true
	m.scheduleRefresh(st, next)
}

// slop is how far a bounded mover may have drifted from its bucketed
// position; queries widen their radius by it so the grid never prunes a
// true neighbour. Half the radio range balances sweep frequency against
// candidate-set size.
func (m *Medium) slop() float64 {
	if m.maxSpeed <= 0 {
		return 0
	}
	return m.cfg.Range * 0.5
}

// syncGrid re-buckets stale cached positions before a query at now:
// unbounded nodes exactly whenever the clock moved, and bounded movers
// without a self-refreshing track at most once per staleness quantum
// (slop / maxSpeed). Movers with a registered refresher are re-bucketed by
// their own event chains and skipped here.
func (m *Medium) syncGrid(now sim.Time) {
	if m.nUnbounded > 0 && now != m.unboundedAt {
		for ord, p := range m.byOrd {
			if m.speeds[ord] < 0 {
				m.grid.Set(ord, p.pos(now))
			}
		}
		m.unboundedAt = now
	}
	if m.nSweepMovers > 0 {
		quantum := sim.Duration(m.slop() / m.maxSpeed * float64(time.Second))
		if now.Sub(m.lastSweep) > quantum {
			for ord, p := range m.byOrd {
				if m.sweepMover(ord) {
					m.grid.Set(ord, p.pos(now))
				}
			}
			m.lastSweep = now
		}
	}
}

// gridForEach invokes fn for every port that could currently be within
// range of a transmitter at `at` — a superset; callers must re-check exact
// positions. extra widens the query radius beyond the range and bucketing
// slop: the remote-scan path queries positions slightly in the past, so
// its candidates must also cover the drift a bounded node can accumulate
// over the propagation delay. Candidates are collected into a bitset
// indexed by attachment ordinal and drained in increasing-ordinal order,
// so receivers are visited in attachment order without sorting. The
// bitset is scratch state; fn must not trigger another grid query
// (protocol callbacks run later, from scheduled events, so this cannot
// recurse).
func (m *Medium) gridForEach(at geom.Point, now sim.Time, extra float64, fn func(o *port)) {
	m.syncGrid(now)
	words := (len(m.byOrd) + 63) >> 6
	if cap(m.candBits) < words {
		m.candBits = make([]uint64, words)
	}
	bits64 := m.candBits[:words]
	m.grid.Visit(at, m.cfg.Range+m.slop()+extra, func(id int) {
		bits64[id>>6] |= 1 << (id & 63)
	})
	for w, word := range bits64 {
		if word == 0 {
			continue
		}
		bits64[w] = 0
		base := w << 6
		for word != 0 {
			ord := base + bits.TrailingZeros64(word)
			word &= word - 1
			fn(m.byOrd[ord])
		}
	}
}

// SetDown marks a node as failed (true) or restored (false). Down nodes
// neither transmit nor receive.
func (m *Medium) SetDown(id NodeID, down bool) {
	if p, ok := m.ports[id]; ok {
		p.down = down
	}
}

// AppendNeighbors appends the ids currently within range of id to out — in
// attachment order, excluding down nodes — and returns the extended slice.
// It allocates nothing when out has sufficient capacity.
func (m *Medium) AppendNeighbors(id NodeID, out []NodeID) []NodeID {
	p, ok := m.ports[id]
	if !ok || p.down {
		return out
	}
	now := m.sim.Now()
	at := p.pos(now)
	r2 := m.cfg.Range * m.cfg.Range
	m.gridForEach(at, now, 0, func(o *port) {
		if o == p || o.down {
			return
		}
		if at.Dist2(o.pos(now)) <= r2 {
			out = append(out, o.id)
		}
	})
	return out
}

// InRange reports whether b currently hears a.
func (m *Medium) InRange(a, b NodeID) bool {
	pa, ok1 := m.ports[a]
	pb, ok2 := m.ports[b]
	if !ok1 || !ok2 || pa.down || pb.down {
		return false
	}
	now := m.sim.Now()
	return pa.pos(now).Dist2(pb.pos(now)) <= m.cfg.Range*m.cfg.Range
}

// txDuration returns the serialization time of a frame.
func (m *Medium) txDuration(size int) sim.Duration {
	if m.cfg.BitrateBps <= 0 {
		return 0
	}
	return sim.Duration(float64(size*8) / m.cfg.BitrateBps * float64(time.Second))
}

// mix64 is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// hash for the medium's draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// drawMix derives one draw from the medium seed and the draw's identity. A
// sequential RNG would entangle every medium draw with global event order;
// a content-keyed hash gives each draw the same value no matter which
// region evaluates it or in what order.
func drawMix(seed, a, b, c uint64) uint64 {
	h := mix64(seed + 0x9e3779b97f4a7c15 + a)
	h = mix64(h + 0x9e3779b97f4a7c15 + b)
	h = mix64(h + 0x9e3779b97f4a7c15 + c)
	return h
}

// txJitter draws the contention jitter for one transmission attempt.
func (m *Medium) txJitter(from NodeID, txSeq uint64) sim.Duration {
	if m.cfg.BroadcastJitter <= 0 {
		return 0
	}
	h := drawMix(m.cfg.Seed, uint64(from), txSeq, 0)
	return sim.Duration(h % uint64(m.cfg.BroadcastJitter))
}

// lossDraw decides whether the frame of the given transmission attempt is
// lost on its way to the receiver. Callers gate on LossRate > 0 so a
// lossless medium hashes nothing.
func (m *Medium) lossDraw(from NodeID, txSeq uint64, to NodeID) bool {
	h := drawMix(m.cfg.Seed, uint64(from), txSeq, uint64(to)+1)
	return float64(h>>11)/(1<<53) < m.cfg.LossRate
}

// --- Frame ownership (the pooled wire path) ---
//
// The buffer-ownership contract:
//
//   - Frame(size) checks a buffer out of the medium's pool; the caller
//     owns it and must either hand it back through BroadcastFrame /
//     UnicastFrame (ownership transfers to the medium) or return it with
//     ReleaseFrame on any path that never transmits.
//   - The medium releases a transmitted frame after its last use: once
//     every scheduled delivery of a broadcast has run, or — for unicasts
//     — after the delivery completes and every link-layer retry is
//     exhausted (retries retransmit the same buffer).
//   - Receivers never own the frame: Deliver borrows it for the duration
//     of the call (see Handler).
//   - The Broadcast/Unicast entry points keep caller ownership: the
//     medium never releases those payloads (pre-encoded attacker replays
//     and harness traffic stay caller-owned), though they ride the same
//     recycled job/batch event path.

// Frame returns a zero-length frame buffer with capacity at least size,
// drawn from the medium's size-class pool. Callers encode into it with
// wire.AppendEncode, sizing via wire.EncodedSize so the buffer never
// grows.
func (m *Medium) Frame(size int) []byte { return m.pool.Get(size) }

// ReleaseFrame returns a frame obtained from Frame that will not be
// transmitted after all.
func (m *Medium) ReleaseFrame(b []byte) { m.pool.Put(b) }

// PoolStats reports the frame pool's traffic counters. The leak suite
// holds Live at zero after a drained run — every transmit path, including
// every early drop, must release its frame.
func (m *Medium) PoolStats() pool.Stats { return m.pool.Stats() }

// txJob is the recycled state of one in-flight transmission. A unicast
// job carries its own retry counter, so retransmissions reuse both the job
// and the frame.
type txJob struct {
	m       *Medium
	p       *port
	payload []byte
	release bool // medium owns payload; release after its last use
	unicast bool
	to      NodeID
	retries int
	txSeq   uint64 // this attempt's draw key (fresh per retry)
	acked   func(bool)
	next    *txJob
}

func (m *Medium) takeJob() *txJob {
	if j := m.freeJobs; j != nil {
		m.freeJobs = j.next
		j.next = nil
		return j
	}
	return &txJob{m: m}
}

func (m *Medium) putJob(j *txJob) {
	j.p, j.payload, j.acked = nil, nil, nil
	j.next = m.freeJobs
	m.freeJobs = j
}

// deliveryBatch carries one broadcast frame and every receiver that
// survived the loss process to a single delivery event, replacing one
// closure-captured event per receiver.
type deliveryBatch struct {
	m       *Medium
	from    NodeID
	frame   []byte
	release bool
	ports   []*port
	next    *deliveryBatch
}

func (m *Medium) takeBatch() *deliveryBatch {
	if b := m.freeBatches; b != nil {
		m.freeBatches = b.next
		b.next = nil
		return b
	}
	return &deliveryBatch{m: m}
}

// runBatch fires at transmission-end + PropDelay and invokes every
// surviving receiver's handler in the order the loss process visited them
// (attachment order), then releases the shared frame. Receivers that went
// down between scheduling and delivery are skipped.
func runBatch(v any) {
	b := v.(*deliveryBatch)
	m := b.m
	for _, o := range b.ports {
		if o.down {
			continue
		}
		// Events the receiver schedules in reaction belong to the
		// receiver's causal stream, not the transmitter's.
		prev := m.sim.SetOwner(uint32(o.id) + 1)
		o.handler.Deliver(b.from, b.frame)
		m.sim.SetOwner(prev)
	}
	if b.release {
		m.pool.Put(b.frame)
	}
	b.frame = nil
	for i := range b.ports {
		b.ports[i] = nil
	}
	b.ports = b.ports[:0]
	b.next = m.freeBatches
	m.freeBatches = b
}

func runCompleteJob(v any) { j := v.(*txJob); j.m.completeJob(j) }
func runJobNack(v any)     { j := v.(*txJob); j.m.jobAckOutcome(j, false) }

// BroadcastFrame broadcasts a frame the caller obtained from Frame;
// ownership transfers to the medium, which releases it after the last
// delivery (or immediately on any drop path).
func (m *Medium) BroadcastFrame(from NodeID, frame []byte) {
	m.startJob(from, frame, true, false, 0, nil)
}

// UnicastFrame unicasts a frame the caller obtained from Frame; ownership
// transfers to the medium, which reuses the buffer across link-layer
// retries and releases it once the ACK outcome is final and any delivery
// has completed.
func (m *Medium) UnicastFrame(from, to NodeID, frame []byte, acked func(bool)) {
	m.startJob(from, frame, true, true, to, acked)
}

// Broadcast queues a link-layer broadcast from the given node. Delivery to
// each in-range, up receiver happens after serialization + propagation,
// subject to the loss process. The payload stays caller-owned (never
// released), so pre-encoded or shared buffers are safe here.
func (m *Medium) Broadcast(from NodeID, payload []byte) {
	m.startJob(from, payload, false, false, 0, nil)
}

// Unicast queues a link-layer unicast to a specific neighbour. acked, if
// non-nil, is invoked exactly once when the (simulated) link-layer ACK
// outcome is known: true when the frame was delivered, possibly after
// Config.UnicastRetries retransmissions. The payload stays caller-owned.
func (m *Medium) Unicast(from, to NodeID, payload []byte, acked func(bool)) {
	m.startJob(from, payload, false, true, to, acked)
}

// startJob builds a recycled transmit job and runs the first attempt.
func (m *Medium) startJob(from NodeID, payload []byte, release, unicast bool, to NodeID, acked func(bool)) {
	p, ok := m.ports[from]
	if !ok {
		panic("radio: transmit from unknown node")
	}
	j := m.takeJob()
	j.p, j.payload, j.release, j.unicast, j.to, j.acked = p, payload, release, unicast, to, acked
	j.retries = 0
	if unicast {
		j.retries = m.cfg.UnicastRetries
	}
	m.transmitJob(j)
}

// transmitJob runs one transmission attempt: it draws the contention
// jitter, queues the frame behind the port's earlier transmissions (or
// drops it past MaxQueueDelay) and schedules completion at serialization
// end.
func (m *Medium) transmitJob(j *txJob) {
	p := j.p
	if p.down {
		m.stats.QueueDrops++
		m.dropJob(j)
		return
	}
	j.txSeq = p.txSeq
	p.txSeq++
	now := m.sim.Now()
	start := now.Add(m.txJitter(p.id, j.txSeq))
	if p.busyUntil > start {
		start = p.busyUntil
	}
	if m.cfg.MaxQueueDelay > 0 && start.Sub(now) > m.cfg.MaxQueueDelay {
		m.stats.QueueDrops++
		m.dropJob(j)
		return
	}
	dur := m.txDuration(len(j.payload))
	p.busyUntil = start.Add(dur)

	m.stats.TxFrames++
	m.stats.TxBytes += uint64(len(j.payload))
	if j.unicast {
		m.stats.UnicastSent++
	} else {
		m.stats.BroadcastSent++
	}
	m.sim.DoAtArg(start.Add(dur), runCompleteJob, j)
}

// dropJob handles a transmit-time drop. Unicasts learn the outcome
// asynchronously, from one scheduled event (the retry draw must happen at
// the event, not inline); broadcasts have no observer, so the frame is
// released and the job recycled on the spot.
func (m *Medium) dropJob(j *txJob) {
	if j.unicast {
		m.sim.DoArg(0, runJobNack, j)
		return
	}
	m.finishJob(j)
}

// finishJob releases a job's frame (when still medium-owned) and recycles
// the job.
func (m *Medium) finishJob(j *txJob) {
	if j.release {
		m.pool.Put(j.payload)
	}
	m.putJob(j)
}

// jobAckOutcome resolves one unicast attempt: retry on failure while the
// counter lasts (retransmitting the same frame), otherwise surface the
// final outcome and release the job. On success the delivery batch has
// already taken over frame ownership.
func (m *Medium) jobAckOutcome(j *txJob, ok bool) {
	if !ok && j.retries > 0 {
		m.stats.Retries++
		j.retries--
		m.transmitJob(j)
		return
	}
	acked := j.acked
	m.finishJob(j)
	if acked != nil {
		acked(ok)
	}
}

// completeJob runs at the end of serialization: it samples receivers from
// positions at that instant, visits them in attachment order drawing the
// loss process once per in-range receiver, and hands broadcast survivors
// one shared delivery event that carries the single frame.
func (m *Medium) completeJob(j *txJob) {
	p := j.p
	if p.down { // went down mid-transmission
		if j.unicast {
			m.jobAckOutcome(j, false)
			return
		}
		m.finishJob(j)
		return
	}
	now := m.sim.Now()
	at := p.pos(now)
	r2 := m.cfg.Range * m.cfg.Range

	if j.unicast {
		// A real radio would overhear unicasts too; the protocol does not
		// rely on promiscuous mode, so unicast frames reach only the
		// addressee — looked up directly instead of scanned for.
		delivered := false
		if o, ok := m.ports[j.to]; ok {
			if o != p && !o.down && at.Dist2(o.pos(now)) <= r2 {
				delivered = m.deliverJob(p, o, j)
			}
		} else if m.cfg.Remote != nil {
			delivered = m.remoteUnicast(p, j, at, now)
		}
		if !delivered {
			m.stats.UnicastFails++
		}
		m.jobAckOutcome(j, delivered)
		return
	}

	b := m.takeBatch()
	b.from = p.id
	b.frame = j.payload
	collect := func(o *port) {
		if o == p || o.down || at.Dist2(o.pos(now)) > r2 {
			return
		}
		if m.cfg.LossRate > 0 && m.lossDraw(p.id, j.txSeq, o.id) {
			m.stats.LostFrames++
			return
		}
		m.stats.RxFrames++
		b.ports = append(b.ports, o)
	}
	m.gridForEach(at, now, 0, collect)
	if m.cfg.Remote != nil {
		m.postRemoteScans(p, j, at, now)
	}
	if len(b.ports) > 0 {
		b.release = j.release
		j.release = false // the batch owns the frame now
		m.sim.DoArg(m.cfg.PropDelay, runBatch, b)
	} else {
		b.frame = nil
		b.next = m.freeBatches
		m.freeBatches = b
	}
	m.finishJob(j) // zero receivers: releases the frame right here
}

// postRemoteScans hands a broadcast to every other region whose nodes
// could be within range: one read-only frame copy shared by all of them
// (the local pooled buffer is released on schedule, so it cannot travel).
func (m *Medium) postRemoteScans(p *port, j *txJob, at geom.Point, now sim.Time) {
	r := m.cfg.Remote
	m.scanRegions = r.ScanRegions(at, m.cfg.Range, m.scanRegions[:0])
	if len(m.scanRegions) == 0 {
		return
	}
	msg := ScanMsg{
		From:  p.id,
		Pos:   at,
		Sent:  now,
		At:    now.Add(m.cfg.PropDelay),
		TxSeq: j.txSeq,
		Frame: append([]byte(nil), j.payload...),
	}
	for _, reg := range m.scanRegions {
		r.PostScan(reg, msg)
	}
}

// remoteUnicast resolves a unicast whose target lives in another region.
// The whole outcome — existence, range, up/down, loss — is decided here at
// serialization end, exactly when a local target would decide it, so the
// link-layer ACK timing is identical whichever region owns the receiver.
func (m *Medium) remoteUnicast(p *port, j *txJob, at geom.Point, now sim.Time) bool {
	r := m.cfg.Remote
	if !r.Exists(j.to) || r.DownAt(j.to, now) {
		return false
	}
	if at.Dist2(r.PosAt(j.to, now)) > m.cfg.Range*m.cfg.Range {
		return false
	}
	if m.cfg.LossRate > 0 && m.lossDraw(p.id, j.txSeq, j.to) {
		m.stats.LostFrames++
		return false
	}
	m.stats.RxFrames++
	r.PostDeliver(j.to, DeliverMsg{
		From:  p.id,
		To:    j.to,
		At:    now.Add(m.cfg.PropDelay),
		Frame: append([]byte(nil), j.payload...),
	})
	return true
}

// deliverJob applies the loss process to a unicast delivery and, when the
// frame survives, schedules a single-receiver batch that releases the
// frame after the handler runs.
func (m *Medium) deliverJob(p, o *port, j *txJob) bool {
	if m.cfg.LossRate > 0 && m.lossDraw(p.id, j.txSeq, o.id) {
		m.stats.LostFrames++
		return false
	}
	m.stats.RxFrames++
	b := m.takeBatch()
	b.from, b.frame, b.release = p.id, j.payload, j.release
	j.release = false
	b.ports = append(b.ports, o)
	m.sim.DoArg(m.cfg.PropDelay, runBatch, b)
	return true
}

// --- Boundary-crossing injection (the sharded engine's inbound side) ---

type injectedScan struct {
	m   *Medium
	msg ScanMsg
}

type injectedDeliver struct {
	m   *Medium
	msg DeliverMsg
}

func runInjectScan(v any) {
	s := v.(*injectedScan)
	s.m.runRemoteScan(s.msg)
}

func runInjectDeliver(v any) {
	d := v.(*injectedDeliver)
	m := d.m
	o, ok := m.ports[d.msg.To]
	if !ok || o.down {
		return
	}
	prev := m.sim.SetOwner(uint32(o.id) + 1)
	o.handler.Deliver(d.msg.From, d.msg.Frame)
	m.sim.SetOwner(prev)
}

// InjectScan schedules evaluation of a foreign region's broadcast against
// this medium's ports. The event is stamped with the transmitter's
// scheduling owner so that, at equal instants, it sorts against local
// events exactly where the transmitter's delivery batch would have sorted
// had both nodes shared a region. Called by the engine at exchange
// barriers, while the region is quiescent.
func (m *Medium) InjectScan(msg ScanMsg) {
	prev := m.sim.SetOwner(uint32(msg.From) + 1)
	m.sim.DoAtArg(msg.At, runInjectScan, &injectedScan{m: m, msg: msg})
	m.sim.SetOwner(prev)
}

// InjectDeliver schedules delivery of a foreign region's unicast to the
// local target port. Loss and range were already resolved sender-side;
// only the receiver's up/down state at delivery time remains to check —
// the same check a local delivery batch makes.
func (m *Medium) InjectDeliver(msg DeliverMsg) {
	prev := m.sim.SetOwner(uint32(msg.From) + 1)
	m.sim.DoAtArg(msg.At, runInjectDeliver, &injectedDeliver{m: m, msg: msg})
	m.sim.SetOwner(prev)
}

// runRemoteScan evaluates a boundary-crossing broadcast at its delivery
// instant: receivers are sampled at msg.Sent (a pure past query — exactly
// the instant the transmitter's region sampled its local receivers), the
// loss process draws the same content-keyed hashes a local evaluation
// would, and surviving receivers that are still up get the frame. The
// candidate radius is widened by the drift a bounded node can accumulate
// between Sent and now, on top of the usual bucketing slop.
func (m *Medium) runRemoteScan(msg ScanMsg) {
	r2 := m.cfg.Range * m.cfg.Range
	rm := m.cfg.Remote
	collect := func(o *port) {
		if rm.DownAt(o.id, msg.Sent) {
			return
		}
		if msg.Pos.Dist2(o.pos(msg.Sent)) > r2 {
			return
		}
		if m.cfg.LossRate > 0 && m.lossDraw(msg.From, msg.TxSeq, o.id) {
			m.stats.LostFrames++
			return
		}
		m.stats.RxFrames++
		if o.down { // went down between Sent and delivery
			return
		}
		prev := m.sim.SetOwner(uint32(o.id) + 1)
		o.handler.Deliver(msg.From, msg.Frame)
		m.sim.SetOwner(prev)
	}
	extra := m.maxSpeed * m.cfg.PropDelay.Seconds()
	m.gridForEach(msg.Pos, m.sim.Now(), extra, collect)
}
