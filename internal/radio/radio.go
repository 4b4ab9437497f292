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
// is a draw of the radio stream (internal/draw) keyed by (the seed New
// takes, transmitter, the transmitter's transmission sequence, receiver).
// A draw therefore does not depend on the order the medium visits
// receivers, on other media sharing the simulator, or on how the sharded
// engine split the network, and the medium consumes no sequential stream.
//
// Nodes are identified by a NodeID playing the role of the interface's MAC
// address; IP-to-NodeID resolution is the upper layer's concern.
//
// Every broadcast fans out from the transmitter's receiver list: the ports
// within Range + 2s of it when the list was built, in attachment order,
// where s is a fixed fraction of the range, and 0 on a medium with no
// movers. A list serves until s / maxSpeed after its build, in which no
// node drifts more than s, so no pair closes by more than 2s; on a medium
// with no movers it is exact and serves until an attach or detach drops
// it. One walk of a uniform spatial hash grid builds a list; the grid also
// answers AppendNeighbors and boundary-crossing broadcasts directly. Every
// transmission rides one pooled path: frame buffers come from a per-medium
// size-class pool and each broadcast's surviving receivers share one
// delivery event. The package tests hold the grid and the lists to a
// brute-force neighbour oracle computed from the raw position functions.
package radio

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"sbr6/internal/draw"
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
	//
	// Every Deliver call is made from a delivery event: a broadcast's
	// receivers on this medium, a boundary-crossing broadcast's receivers
	// or a unicast's addressee. During it, Medium.Delivery reports the
	// event's number, and every receiver the event reaches gets the same
	// payload slice, so receivers that share a medium may share work that
	// depends only on the bytes. The number, not the buffer's address,
	// tells one frame from the next: a released buffer carries the next
	// transmission.
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
}

// Remote is implemented by the sharded engine (one adapter per region).
// It answers pure-past queries about nodes owned by other regions —
// positions at or before the caller's current virtual time — and
// transports boundary-crossing frames. All methods must be
// safe to call while other regions execute concurrently.
type Remote interface {
	// Exists reports whether the id is attached anywhere in the network.
	Exists(id NodeID) bool
	// PosAt returns the node's position at time t (t never exceeds the
	// calling region's safe horizon, so the answer is final).
	PosAt(id NodeID, t sim.Time) geom.Point
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
	speed     float64 // declared speed bound in m/s; 0 = static
	handler   Handler
	busyUntil sim.Time
	down      bool
	txSeq     uint64 // transmissions attempted so far; keys the medium's draws

	// rx is the port's receiver list: every other port within list reach
	// of it when the list was built, in attachment order, down ones
	// included (the down check is per broadcast). It serves broadcasts at
	// or before rxUntil; a dropped or unbuilt list has rxUntil noList.
	rx      []*port
	rxUntil sim.Time
}

// Receiver-list horizons: noList precedes every instant, forever follows
// every one.
const (
	noList  = sim.Time(-1)
	forever = sim.Time(math.MaxInt64)
)

// listSlack is s as a fraction of the range: the farthest any node may
// drift while a list it sits in serves. A larger s lengthens both a list
// and its life: fewer rebuilds, more candidates checked per broadcast. A
// port broadcasts many times per life at walking speeds (at 5 m/s a list
// serves 3.1 s), so the short list wins: a sixteenth set up perfbench
// mobile faster than an eighth or a quarter.
const listSlack = 0.0625

// dropList forgets the port's receiver list. Clearing the entries before
// truncating keeps the backing array, reused by the next build, from
// pinning a departed port.
func (p *port) dropList() {
	clear(p.rx)
	p.rx = p.rx[:0]
	p.rxUntil = noList
}

// Medium is the shared channel all nodes transmit on.
//
// Every node declares its speed bound when it attaches; maxSpeed is the
// largest bound among the attached movers, 0 when none is attached.
//
// A broadcast fans out from the transmitter's receiver list and checks
// each candidate's exact distance at serialization end. A list holds the
// ports within Range + 2s of its owner when it was built, s being
// listSlack of the range, and serves until s / maxSpeed later: by then no
// node has drifted more than s, so every port in range of the owner was
// within Range + 2s at the build. On a medium with no movers s is 0 and a
// list is exact and serves until dropped, so the fan-out skips the distance
// check. A list is rebuilt, by one grid walk at the owner's next
// broadcast, once it has lapsed or been dropped. AddNode drops the lists
// within Range + 2s of the joiner, which are the only ones it can enter
// before they lapse, and every list when its bound raises maxSpeed.
// RemoveNode takes the departed port out of every list that holds it,
// lapsed ones included, since a lapsed list may hold it however far its
// owner has drifted; so no list ever pins a removed port. When the last
// mover detaches, every list is dropped and comes back exact.
//
// The grid caches one bucketed position per node. Once the cached
// positions are older than the staleness quantum slop / maxSpeed, the next
// query re-buckets every mover in one sweep. Every query widens its radius
// by the slop, the farthest a node can drift within one quantum, so
// pruning never loses a true neighbour. The sweep schedules no event and
// covers only this medium's ports, so under the sharded engine it stays
// inside one region. AppendNeighbors and boundary-crossing broadcasts walk
// the grid directly.
type Medium struct {
	sim    *sim.Simulator
	cfg    Config
	seed   int64  // keys every draw (contention jitter and the loss process)
	remote Remote // the sharded engine's view of other regions; nil when alone
	ports  map[NodeID]*port
	byOrd  []*port // ports indexed by attachment ordinal; nil = vacated slot
	live   int     // attached (non-removed) ports
	stats  Stats

	// freeOrds are ordinals vacated by RemoveNode, reused LIFO by the next
	// AddNode so churning sessions hold the per-ord parallel arrays at the
	// peak live population instead of growing with cumulative joins.
	freeOrds []int

	// Spatial index state.
	grid        *geom.Grid
	movers      int      // attached ports with a positive speed bound
	maxSpeed    float64  // max bound of the attached movers; falls only when the last detaches
	lastSweep   sim.Time // last re-bucket sweep of the movers
	candBits    []uint64 // reusable candidate bitset (single-threaded sim)
	listBuf     []*port  // reusable receiver-list build buffer, cleared after use
	scanRegions []int    // reusable Remote.ScanRegions buffer

	// Pooled wire path state: the frame buffer pool plus free lists of
	// transmit jobs and delivery batches. All strictly per-medium — the
	// single-goroutine discipline the sharded engine depends on.
	pool        *pool.Pool
	freeJobs    *txJob
	freeBatches *deliveryBatch

	// deliveries counts the delivery events run so far; delivering is the
	// number of the one in progress, 0 between events.
	deliveries uint64
	delivering uint64
}

// New creates a medium on the given simulator. seed keys every draw of
// the medium (contention jitter and the loss process); callers pass their
// run's seed, so each run draws its own jitter and loss. remote, when
// non-nil, is the sharded engine's view of nodes that live in other
// regions: transmissions that may reach across the region boundary are
// handed off through it instead of stopping at the local port table.
func New(s *sim.Simulator, cfg Config, seed int64, remote Remote) *Medium {
	if cfg.Range <= 0 {
		cfg.Range = 250
	}
	m := &Medium{sim: s, cfg: cfg, seed: seed, remote: remote, ports: make(map[NodeID]*port),
		grid: geom.NewGrid(cfg.Range), pool: pool.New()}
	m.pool.SetPoison(cfg.PoisonFrames)
	return m
}

// Config returns the medium's configuration.
func (m *Medium) Config() Config { return m.cfg }

// Stats returns a snapshot of the link-layer counters.
func (m *Medium) Stats() Stats { return m.stats }

// Delivery reports the number of the delivery event in progress — the
// medium numbers them 1, 2, 3, ... — or 0 outside one. Every Deliver call
// an event makes sees the same number (see Handler).
func (m *Medium) Delivery() uint64 { return m.delivering }

// beginDelivery numbers the delivery event starting now.
func (m *Medium) beginDelivery() {
	m.deliveries++
	m.delivering = m.deliveries
}

// AddNode attaches a node to the medium. speed is the node's speed bound
// in metres/second (mobility.Track.SpeedBound; zero = static): pos must
// never move faster. Adding the same id twice panics, and so does a
// negative, NaN or infinite bound: both are always harness bugs. Ordinals
// vacated by RemoveNode are reused, so a joiner may iterate where a
// departed node used to — receiver order stays a deterministic function of
// the attach/remove history.
func (m *Medium) AddNode(id NodeID, pos PositionFunc, speed float64, h Handler) {
	if _, dup := m.ports[id]; dup {
		panic("radio: duplicate NodeID")
	}
	if pos == nil || h == nil {
		panic("radio: nil position or handler")
	}
	if speed < 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		panic("radio: speed bound must be finite and non-negative")
	}
	p := &port{id: id, pos: pos, speed: speed, handler: h, rxUntil: noList}
	if n := len(m.freeOrds); n > 0 {
		p.ord = m.freeOrds[n-1]
		m.freeOrds = m.freeOrds[:n-1]
		m.byOrd[p.ord] = p
	} else {
		p.ord = len(m.byOrd)
		m.byOrd = append(m.byOrd, p)
	}
	if speed > 0 {
		m.movers++
	}
	m.ports[id] = p
	m.live++
	m.grid.Set(p.ord, pos(m.sim.Now()))
	if speed > m.maxSpeed {
		// Every list was built for a life the faster joiner could outrun.
		m.maxSpeed = speed
		m.dropAll()
	} else {
		m.dropNear(p)
	}
}

// RemoveNode detaches a node for good: it stops receiving immediately, its
// grid bucket and speed accounting are reclaimed, and its ordinal is
// recycled to the next AddNode. In-flight state is handled by the
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
	m.forget(p)
	p.dropList()
	delete(m.ports, id)
	p.down = true // tombstone for in-flight jobs and batches
	ord := p.ord
	if p.speed > 0 {
		m.movers--
		if m.movers == 0 {
			// Every list was built for lives and reaches that lapse; the
			// rebuilt ones are exact.
			m.maxSpeed = 0
			m.dropAll()
		}
	}
	m.byOrd[ord] = nil
	m.freeOrds = append(m.freeOrds, ord)
	m.live--
	m.grid.Remove(ord)
}

// Live reports the number of attached (non-removed) ports — the churn
// conformance suite's occupancy check.
func (m *Medium) Live() int { return m.live }

// slop is how far a mover may have drifted from its bucketed position;
// queries widen their radius by it so the grid never prunes a true
// neighbour. Half the radio range balances sweep frequency against
// candidate-set size. With no mover attached yet the grid is exact.
func (m *Medium) slop() float64 {
	if m.maxSpeed <= 0 {
		return 0
	}
	return m.cfg.Range * 0.5
}

// syncGrid re-buckets every mover before a query at now once the cached
// positions are older than the staleness quantum slop / maxSpeed. A node
// attached since the last sweep was bucketed at its attach instant, later
// than the sweep, so it has drifted no farther than the swept movers.
func (m *Medium) syncGrid(now sim.Time) {
	if m.movers == 0 {
		return
	}
	quantum := sim.Duration(m.slop() / m.maxSpeed * float64(time.Second))
	if now.Sub(m.lastSweep) <= quantum {
		return
	}
	for ord, p := range m.byOrd {
		if p != nil && p.speed > 0 {
			m.grid.Set(ord, p.pos(now))
		}
	}
	m.lastSweep = now
}

// gridForEach invokes fn for every port that could currently be within
// range of a transmitter at `at` — a superset; callers must re-check exact
// positions. extra widens the query radius beyond the range and bucketing
// slop: a receiver list reaches 2s farther, and the remote-scan path
// queries positions slightly in the past, so its candidates must also
// cover the drift a node can accumulate over the propagation delay.
// Candidates are collected into a bitset indexed by attachment ordinal
// and drained in increasing-ordinal order, so receivers are visited in
// attachment order without sorting. The bitset is scratch state; fn must
// not trigger another grid query (protocol callbacks run later, from
// scheduled events, so this cannot recurse).
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

// slack returns s, the drift budget of a receiver list: listSlack of the
// range, or 0 while the medium holds no mover.
func (m *Medium) slack() float64 {
	if m.maxSpeed <= 0 {
		return 0
	}
	return m.cfg.Range * listSlack
}

// dropNear drops the receiver lists of the ports within list reach,
// Range + 2s, of p, a joiner: it can enter no other list before that list
// lapses.
func (m *Medium) dropNear(p *port) {
	now := m.sim.Now()
	at := p.pos(now)
	extra := 2 * m.slack()
	reach2 := (m.cfg.Range + extra) * (m.cfg.Range + extra)
	m.gridForEach(at, now, extra, func(o *port) {
		if o != p && at.Dist2(o.pos(now)) <= reach2 {
			o.dropList()
		}
	})
}

// dropAll drops every receiver list.
func (m *Medium) dropAll() {
	for _, o := range m.byOrd {
		if o != nil {
			o.dropList()
		}
	}
}

// forget takes p, which is detaching, out of every receiver list that
// holds it, lapsed ones included, keeping each list's order: a list
// without p is still the list it was, minus a port that can no longer
// receive. slices.Delete clears the vacated slot, so nothing pins p.
func (m *Medium) forget(p *port) {
	for _, o := range m.byOrd {
		if o == nil {
			continue
		}
		if i := slices.Index(o.rx, p); i >= 0 {
			o.rx = slices.Delete(o.rx, i, i+1)
		}
	}
}

// receivers returns p's receiver list for a broadcast at now, from at,
// rebuilding it with one grid walk when it has lapsed or been dropped, and
// reports whether it is exact (the medium holds no mover), so the fan-out
// may skip the distance check. A rebuild reuses the list's capacity; one
// that outgrows it allocates once, with room to grow by half, so a list
// whose length wanders as its neighbours move settles into its array.
func (m *Medium) receivers(p *port, at geom.Point, now sim.Time) (rx []*port, exact bool) {
	s := m.slack()
	if now > p.rxUntil {
		reach2 := (m.cfg.Range + 2*s) * (m.cfg.Range + 2*s)
		m.gridForEach(at, now, 2*s, func(o *port) {
			if o != p && at.Dist2(o.pos(now)) <= reach2 {
				m.listBuf = append(m.listBuf, o)
			}
		})
		n, stale := len(m.listBuf), len(p.rx)
		if n > cap(p.rx) {
			p.rx = make([]*port, 0, n+n/2)
		}
		p.rx = append(p.rx[:0], m.listBuf...)
		if n < stale {
			clear(p.rx[n:stale]) // no pin past the end
		}
		clear(m.listBuf)
		m.listBuf = m.listBuf[:0]
		p.rxUntil = forever
		if s > 0 {
			// No node drifts more than s in s / maxSpeed. A life too long
			// for the clock (a vanishing speed bound) never lapses.
			if life := s / m.maxSpeed * float64(time.Second); life < float64(forever-now) {
				p.rxUntil = now.Add(sim.Duration(life))
			}
		}
	}
	return p.rx, s == 0
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

// radioDraw returns the radio stream's draw for transmitter from's attempt
// txSeq, folding sub after it: 0 for the contention jitter, r+1 for
// receiver r's loss. Keyed by content rather than by a sequential counter,
// each draw has the same value no matter which region evaluates it or in
// what order.
func (m *Medium) radioDraw(from NodeID, txSeq, sub uint64) uint64 {
	return draw.Mix(draw.KeyOf(m.seed, draw.Radio, uint64(from)), txSeq, sub)
}

// txJitter draws the contention jitter for one transmission attempt.
func (m *Medium) txJitter(from NodeID, txSeq uint64) sim.Duration {
	if m.cfg.BroadcastJitter <= 0 {
		return 0
	}
	h := m.radioDraw(from, txSeq, 0)
	return sim.Duration(h % uint64(m.cfg.BroadcastJitter))
}

// lossDraw decides whether the frame of the given transmission attempt is
// lost on its way to the receiver. Callers gate on LossRate > 0 so a
// lossless medium hashes nothing.
func (m *Medium) lossDraw(from NodeID, txSeq uint64, to NodeID) bool {
	h := m.radioDraw(from, txSeq, uint64(to)+1)
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
	m.beginDelivery()
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
	m.delivering = 0
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
// positions at that instant — the transmitter's receiver list, each
// candidate's distance checked unless the list is exact — visits them in
// attachment order drawing the loss process once per in-range receiver,
// and hands broadcast survivors one shared delivery event that carries the
// single frame.
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
		} else if m.remote != nil {
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
	rx, exact := m.receivers(p, at, now)
	for _, o := range rx {
		if exact || at.Dist2(o.pos(now)) <= r2 {
			m.admit(b, j, o)
		}
	}
	if m.remote != nil {
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

// admit takes in-range receiver o into broadcast batch b unless o is down
// or the loss process drops the frame on its way to o.
func (m *Medium) admit(b *deliveryBatch, j *txJob, o *port) {
	if o.down {
		return
	}
	if m.cfg.LossRate > 0 && m.lossDraw(j.p.id, j.txSeq, o.id) {
		m.stats.LostFrames++
		return
	}
	m.stats.RxFrames++
	b.ports = append(b.ports, o)
}

// postRemoteScans hands a broadcast to every other region whose nodes
// could be within range: one read-only frame copy shared by all of them
// (the local pooled buffer is released on schedule, so it cannot travel).
func (m *Medium) postRemoteScans(p *port, j *txJob, at geom.Point, now sim.Time) {
	r := m.remote
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
// The whole outcome — existence, range, loss — is decided here at
// serialization end, exactly when a local target would decide it, so the
// link-layer ACK timing is identical whichever region owns the receiver.
func (m *Medium) remoteUnicast(p *port, j *txJob, at geom.Point, now sim.Time) bool {
	r := m.remote
	if !r.Exists(j.to) {
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
	m.beginDelivery()
	prev := m.sim.SetOwner(uint32(o.id) + 1)
	o.handler.Deliver(d.msg.From, d.msg.Frame)
	m.sim.SetOwner(prev)
	m.delivering = 0
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
// candidate radius is widened by the drift a node can accumulate between
// Sent and now, on top of the usual bucketing slop.
func (m *Medium) runRemoteScan(msg ScanMsg) {
	r2 := m.cfg.Range * m.cfg.Range
	collect := func(o *port) {
		if msg.Pos.Dist2(o.pos(msg.Sent)) > r2 {
			return
		}
		if m.cfg.LossRate > 0 && m.lossDraw(msg.From, msg.TxSeq, o.id) {
			m.stats.LostFrames++
			return
		}
		m.stats.RxFrames++
		if o.down { // down at delivery, as in runBatch
			return
		}
		prev := m.sim.SetOwner(uint32(o.id) + 1)
		o.handler.Deliver(msg.From, msg.Frame)
		m.sim.SetOwner(prev)
	}
	extra := m.maxSpeed * m.cfg.PropDelay.Seconds()
	m.beginDelivery()
	m.gridForEach(msg.Pos, m.sim.Now(), extra, collect)
	m.delivering = 0
}
