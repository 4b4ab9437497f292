// Live is the one definition of a run: a built Scenario advanced window
// by window, with nodes joining and leaving between windows and every
// per-window measurement streamed and dropped instead of accumulated.
// Live.Run drives it to its end (bootstrap, warmup, the measured windows
// and the cooldown windows); the public Runner runs every replicate that
// way, and the public Session and the manetsim daemon drive the same type
// under external control.
//
// # One rule each
//
// A flow is one self-rescheduling chain that sends at Start + k·Interval
// into the measured span, for k ≥ 1, strictly before Duration. A node's
// audit sweep is one chain at its audit.Offset phase, where a zero phase
// waits one period (Scenario.StartAudits). The memory bounds below decide
// the rest: a packet pruned from tracking counts as lost, and every sample
// series is read from its SampleAgg.
//
// # Bounded memory
//
// A session must hold a steady-state heap over an unbounded run, so no
// buffer grows with the run's length:
//
//   - sample series (latencies, DAD durations) are drained from every
//     node's metrics at each window barrier and folded into fixed-size
//     aggregates (count/sum/min/max plus a 64-bucket log histogram);
//   - the in-flight packet map is pruned of entries older than the
//     cooldown;
//   - window stats live in a short ring: a window is finalized and
//     emitted once no in-flight packet can still land in it (the
//     cooldown lag), then dropped;
//   - departed nodes leave only their merged counters behind, in a
//     single graveyard sink.
//
// # Determinism
//
// Everything external happens at window barriers, when every region of
// the engine has quiesced: joins, leaves, queries and snapshots never
// interleave with events. Join positions and start jitters draw from a
// dedicated churn RNG stream, so a session replayed from the same seed
// with the same barrier-stamped operation journal reproduces the run byte
// for byte — that replay is exactly how snapshot restore works.
package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sbr6/internal/core"
	"sbr6/internal/identity"
	"sbr6/internal/ndp"
	"sbr6/internal/radio"
	"sbr6/internal/trace"
)

// Live session errors.
var (
	ErrNotStarted = errors.New("scenario: session not started")
	ErrNoSuchNode = errors.New("scenario: no such node")
	ErrAnchor     = errors.New("scenario: node 0 is the DNS anchor and cannot leave")
	ErrDeparted   = errors.New("scenario: node already left")
)

// SampleAgg is a bounded replacement for an unbounded sample series:
// count, sum, extremes and a fixed log-spaced histogram. Folding a
// drained series into it is deterministic given the series order, and
// two aggs fed the same observations in the same order are identical —
// which makes aggs part of the snapshot-equivalence surface.
type SampleAgg struct {
	Count    int64
	Sum      float64
	Min, Max float64
	Hist     [histBuckets]int64
}

const (
	histBuckets = 64
	histMin     = 1e-6 // seconds; bucket 0 also absorbs everything below
	histMax     = 1e4
)

// histBucket maps v to its bucket: log-spaced between histMin and
// histMax, clamped at the ends.
func histBucket(v float64) int {
	if !(v > histMin) {
		return 0
	}
	b := int(math.Log(v/histMin) / math.Log(histMax/histMin) * histBuckets)
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histUpper is bucket b's upper edge in seconds.
func histUpper(b int) float64 {
	return histMin * math.Pow(histMax/histMin, float64(b+1)/histBuckets)
}

// Observe folds one sample in.
func (a *SampleAgg) Observe(v float64) {
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count++
	a.Sum += v
	a.Hist[histBucket(v)]++
}

// Mean returns the aggregate mean, 0 when empty or nil (never NaN:
// session results must survive reflect.DeepEqual).
func (a *SampleAgg) Mean() float64 {
	if a == nil || a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Quantile estimates the q-quantile by nearest rank over the histogram,
// reporting the containing bucket's upper edge clamped to the observed
// maximum; 0 when empty or nil.
func (a *SampleAgg) Quantile(q float64) float64 {
	if a == nil || a.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(a.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += a.Hist[b]
		if seen >= rank {
			return math.Min(histUpper(b), a.Max)
		}
	}
	return a.Max
}

// WindowReport is one finalized measurement window of a live session: the
// delivery stats of the window itself plus the deltas of every merged
// node counter over the window's span of simulation time. Deliveries are
// attributed to the window the packet was sent in. Reports are emitted in
// index order, each exactly once, lagged far enough that no in-flight
// packet can still land in the window.
type WindowReport struct {
	Index     int                `json:"index"`
	Start     time.Duration      `json:"start"` // offset from measurement start
	Sent      int                `json:"sent"`
	Delivered int                `json:"delivered"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Live      int                `json:"live"`     // live nodes at the window's closing barrier
	InFlight  int                `json:"inFlight"` // tracked packets at the window's closing barrier
}

// PDR returns the window's delivery ratio (0 when nothing was sent).
func (w WindowReport) PDR() float64 {
	if w.Sent == 0 {
		return 0
	}
	return float64(w.Delivered) / float64(w.Sent)
}

// Live drives a built Scenario as a session. Construct with NewLive, then
// either Run it to its end, or Start it once and interleave Step / Join /
// Leave / queries. Not safe for concurrent use: one goroutine owns the
// session, exactly as one loop owns a simulator.
type Live struct {
	sc  *Scenario
	w   time.Duration
	lag int

	// OnWindow, when set, receives each finalized window. Suppress turns
	// emission off during snapshot replay, which re-runs windows the
	// original session already streamed.
	OnWindow func(WindowReport)
	Suppress bool

	churn    *rand.Rand
	started  bool
	window   int // windows fully run
	emitNext int // absolute index of the next window to finalize

	graveyard     *trace.Metrics
	deadConfig    int // departed nodes that were configured
	deadFailed    int // departed nodes whose DAD had failed
	aggs          map[string]*SampleAgg
	prevCounters  map[string]float64
	pendingDeltas []map[string]float64 // per retained window, aligned with sc.windows
}

// NewLive wraps a built (not yet run) scenario. The window size comes
// from Cfg.WindowSize, one second when unset; the cooldown, one window
// when unset, bounds how long a packet may stay in flight and sets the
// emission lag. Both defaults are written back into Cfg, where a session
// snapshot reads them.
func NewLive(sc *Scenario) *Live {
	if sc.Cfg.WindowSize <= 0 {
		sc.Cfg.WindowSize = time.Second
	}
	if sc.Cfg.Cooldown <= 0 {
		sc.Cfg.Cooldown = sc.Cfg.WindowSize
	}
	lv := &Live{
		sc:           sc,
		w:            sc.Cfg.WindowSize,
		lag:          windowsIn(sc.Cfg.Cooldown, sc.Cfg.WindowSize) + 1,
		churn:        rand.New(rand.NewSource(sc.Cfg.Seed ^ 0x632be59b)), //sbr6:allow simrng seed-derived churn stream owned by the session
		graveyard:    trace.NewMetrics(),
		aggs:         make(map[string]*SampleAgg),
		prevCounters: make(map[string]float64),
	}
	sc.onLatency = func(seconds float64) { observe(lv.aggs, "e2e.latency_s", seconds) }
	return lv
}

// windowsIn returns ⌈d/w⌉, the whole windows of size w that cover d.
func windowsIn(d, w time.Duration) int { return int((d + w - 1) / w) }

// Start bootstraps the network, arms the audit sweep, runs the warmup,
// and opens the first measurement window with the configured flows
// running. Returns how many nodes configured during bootstrap.
func (lv *Live) Start() int {
	configured, _ := lv.start(context.Background())
	return configured
}

// start is Start under ctx, which the bootstrap checks every cancelSpan of
// virtual time; ok is false when ctx ended it early.
func (lv *Live) start(ctx context.Context) (configured int, ok bool) {
	sc := lv.sc
	if configured, ok = sc.bootstrap(ctx); !ok {
		return 0, false
	}
	sc.StartAudits()
	sc.RunFor(sc.Cfg.Warmup)
	sc.measureStart = sc.Now()
	lv.startFlows()
	lv.started = true
	return configured, true
}

// Run executes the scenario to its end: Start, then ⌈Duration/W⌉ measured
// windows and ⌈Cooldown/W⌉ cooldown windows of Step, where W is the window
// size. The cooldown steps finalize every measured window, and no other.
// Run checks ctx during the bootstrap and between windows, and returns
// nil once ctx is done.
func (lv *Live) Run(ctx context.Context) *Result {
	if _, ok := lv.start(ctx); !ok {
		return nil
	}
	steps := windowsIn(lv.sc.Cfg.Duration, lv.w) + lv.lag - 1
	for k := 0; k < steps; k++ {
		if ctx.Err() != nil {
			return nil
		}
		lv.Step()
	}
	return lv.Result()
}

// Step runs exactly one measurement window and performs the barrier work:
// flow-log replay, in-flight pruning, sample draining, counter deltas, and
// lagged window finalization.
func (lv *Live) Step() {
	sc := lv.sc
	sc.RunFor(lv.w)
	// RunFor has replayed the region flow logs, so the bookkeeping below
	// sees a fully settled window.
	sc.windowAt(lv.window) // materialize the window even if nothing was sent
	lv.window++

	// Prune in-flight entries past the cooldown: they count as lost, and a
	// session must not hold them forever waiting for a delivery that can
	// no longer be attributed.
	horizon := sc.Now().Add(-sc.Cfg.Cooldown)
	//sbr6:commutative age-threshold deletes touch disjoint keys and no surviving state
	for k, at := range sc.sent {
		if at < horizon {
			delete(sc.sent, k)
		}
	}

	for _, n := range sc.Nodes {
		drainInto(lv.aggs, n.Metrics())
	}
	lv.pendingDeltas = append(lv.pendingDeltas, lv.counterDelta())
	for lv.emitNext <= lv.window-lv.lag {
		lv.finalizeOldest()
	}
}

// drainInto folds m's drained sample series into aggs, in observation
// order within each series.
func drainInto(aggs map[string]*SampleAgg, m *trace.Metrics) {
	//sbr6:commutative each drained series folds into its own name's aggregate; series keep their order
	for name, series := range m.DrainSamples() {
		for _, v := range series {
			observe(aggs, name, v)
		}
	}
}

// observe folds one sample into its name's aggregate in aggs. The flow
// path records end-to-end latency straight into the session aggregates
// instead of on a node, so a source's departure cannot strand samples.
func observe(aggs map[string]*SampleAgg, name string, v float64) {
	a := aggs[name]
	if a == nil {
		a = &SampleAgg{}
		aggs[name] = a
	}
	a.Observe(v)
}

// counterDelta merges every counter (live nodes + graveyard) and returns
// the per-name change since the previous barrier, keeping the merged
// snapshot as the new baseline.
func (lv *Live) counterDelta() map[string]float64 {
	cur := lv.mergedCounters()
	delta := make(map[string]float64)
	for _, name := range sortedKeys(cur) {
		if d := cur[name] - lv.prevCounters[name]; d != 0 {
			delta[name] = d
		}
	}
	lv.prevCounters = cur
	return delta
}

// merged returns the counters of the graveyard and every live node, merged.
func (lv *Live) merged() *trace.Metrics {
	m := trace.NewMetrics()
	m.Merge(lv.graveyard)
	for _, n := range lv.sc.Nodes {
		if !n.Dead() {
			m.Merge(n.Metrics())
		}
	}
	return m
}

// mergedCounters returns the merged counter map across the graveyard and
// every live node. Samples are already drained, so this is counters only.
func (lv *Live) mergedCounters() map[string]float64 {
	m := lv.merged()
	out := make(map[string]float64, 64)
	for _, name := range m.CounterNames() {
		out[name] = m.Get(name)
	}
	return out
}

// finalizeOldest emits and drops the oldest retained window.
func (lv *Live) finalizeOldest() {
	sc := lv.sc
	w := WindowReport{Index: lv.emitNext, Start: time.Duration(lv.emitNext) * lv.w}
	if len(sc.windows) > 0 {
		w = sc.windows[0]
		sc.windows = sc.windows[1:]
	}
	if len(lv.pendingDeltas) > 0 {
		w.Counters = lv.pendingDeltas[0]
		lv.pendingDeltas = lv.pendingDeltas[1:]
	}
	sc.winBase = lv.emitNext + 1
	if lv.OnWindow != nil && !lv.Suppress {
		w.Live, w.InFlight = lv.LiveNodes(), len(sc.sent)
		lv.OnWindow(w)
	}
	lv.emitNext++
}

// Windows reports how many measurement windows have fully run.
func (lv *Live) Windows() int { return lv.window }

// LiveNodes reports how many nodes are currently part of the network.
func (lv *Live) LiveNodes() int {
	n := 0
	for _, node := range lv.sc.Nodes {
		if !node.Dead() {
			n++
		}
	}
	return n
}

// InFlight reports the tracked in-flight packet count (conformance
// suites watch it return to steady state).
func (lv *Live) InFlight() int { return len(lv.sc.sent) }

// Join admits a new node: a fresh identity on the next seed-derived
// streams, a spawn position and start jitter from the churn stream, and a
// full secure bootstrap (DAD with objection window) exactly like a
// build-time node. name optionally registers a domain name during DAD; b
// optionally installs an adversarial behavior. Returns the new node's
// index. Barrier-only: call between Steps.
func (lv *Live) Join(name string, b core.Behavior) (int, error) {
	if !lv.started {
		return 0, ErrNotStarted
	}
	sc := lv.sc
	cfg := sc.Cfg
	idx := len(sc.Nodes)
	ident, err := identity.New(cfg.Protocol.Suite, rand.New(rand.NewSource(cfg.Seed+1000+int64(idx))), name) //sbr6:allow simrng seed-derived per-node keygen stream, same scheme as Build
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 9000 + int64(idx))) //sbr6:allow simrng seed-derived per-node protocol stream, same scheme as Build
	pos := cfg.Area.RandomPoint(lv.churn)
	jitterRange := int64(lv.w / 2)
	if jitterRange < 1 {
		jitterRange = 1
	}
	jitter := time.Duration(1 + lv.churn.Int63n(jitterRange))
	track := buildTrack(cfg, pos, idx)

	id := radio.NodeID(idx)
	sc.eng.InjectNode(id, pos)
	ns, nm := sc.eng.NodeSim(id), sc.eng.NodeMedium(id)
	prev := ns.SetOwner(uint32(id) + 1)
	n := core.New(ns, nm, id, ident, sc.Nodes[0].Identity().Pub, cfg.Protocol, rng, nil)
	ns.SetOwner(prev)
	n.Behavior = b
	sc.eng.AddNode(id, track, n)
	sc.eng.ScheduleOwnedAt(id, sc.Now().Add(jitter), n.Start)
	sc.Nodes = append(sc.Nodes, n)
	sc.startAudit(idx)
	return idx, nil
}

// Leave removes a node for good: its timers are cancelled, its radio port
// tombstoned, and its counters merged into the graveyard. The index is
// never reused. Barrier-only.
func (lv *Live) Leave(idx int) error {
	if !lv.started {
		return ErrNotStarted
	}
	sc := lv.sc
	if idx < 0 || idx >= len(sc.Nodes) {
		return fmt.Errorf("%w: %d", ErrNoSuchNode, idx)
	}
	if idx == 0 {
		return ErrAnchor
	}
	n := sc.Nodes[idx]
	if n.Dead() {
		return fmt.Errorf("%w: %d", ErrDeparted, idx)
	}
	if n.Configured() {
		lv.deadConfig++
	} else if n.DADState() == ndp.StateFailed {
		lv.deadFailed++
	}
	// Drain samples first so nothing is stranded, then bank the counters.
	drainInto(lv.aggs, n.Metrics())
	lv.graveyard.Merge(n.Metrics())
	n.Shutdown()
	sc.eng.RemoveNode(radio.NodeID(idx))
	return nil
}

// startFlows arms the configured CBR flows as self-rescheduling chains:
// flow f sends at Start + k·Interval into the measured span, for k ≥ 1,
// at instants strictly before Duration. Each send schedules the next one
// Interval later, so the send for an instant T is scheduled at
// T − Interval, after any timer armed earlier for T. A flow stops for
// good when its source departs; a departed destination simply stops
// delivering.
func (lv *Live) startFlows() {
	sc := lv.sc
	end := sc.measureStart.Add(sc.Cfg.Duration)
	for fi, f := range sc.Cfg.Flows {
		send := sc.armFlow(fi)
		srcID, src := radio.NodeID(f.From), sc.Nodes[f.From]
		srcSim := sc.eng.NodeSim(srcID)
		var tick func()
		tick = func() {
			if src.Dead() {
				return
			}
			send()
			if srcSim.Now().Add(f.Interval) < end {
				srcSim.After(f.Interval, tick)
			}
		}
		if first := sc.Now().Add(f.Start + f.Interval); first < end {
			sc.eng.ScheduleOwnedAt(srcID, first, tick)
		}
	}
}

// Result synthesizes the cumulative session result at the current
// barrier: counters merged across graveyard and live nodes, the flow
// totals, the delivery ratio, the byte and crypto counters, the link
// stats, and every sample series from the bounded aggregates (latency
// reads 0, never NaN, when nothing was delivered). Configured and
// DADFailed count the nodes as they stand now.
func (lv *Live) Result() *Result {
	sc := lv.sc
	m := lv.merged()
	res := &Result{Metrics: m, PerFlow: make(map[int]FlowResult), Samples: lv.samples(m)}
	//sbr6:commutative order-free sums plus one distinct PerFlow key per flow
	for fi, st := range sc.flowStats {
		res.Sent += st.sent
		res.Delivered += st.delivered
		res.PerFlow[fi] = FlowResult{Sent: st.sent, Delivered: st.delivered}
	}
	if res.Sent > 0 {
		res.PDR = float64(res.Delivered) / float64(res.Sent)
	}
	res.ControlBytes = m.Get("tx.bytes.control")
	res.DataBytes = m.Get("tx.bytes.data")
	res.CryptoSign = m.Get("crypto.sign")
	res.CryptoVerify = m.Get("crypto.verify")
	res.Link = sc.eng.Stats()
	res.Configured = lv.deadConfig
	res.DADFailed = lv.deadFailed
	for _, n := range lv.sc.Nodes {
		if n.Dead() {
			continue
		}
		if n.Configured() {
			res.Configured++
		} else if n.DADState() == ndp.StateFailed {
			res.DADFailed++
		}
	}
	if lat, ok := res.Samples["e2e.latency_s"]; ok {
		res.LatencyMean = lat.Mean()
		res.LatencyP95 = lat.Quantile(0.95)
	}
	return res
}

// samples returns copies of the session aggregates with the series still
// undrained in m (the merged node metrics) folded in, draining them from
// m. Series stay undrained only until the first Step, so a Result read at
// any barrier sees every sample once, in the order Step folds it.
func (lv *Live) samples(m *trace.Metrics) map[string]*SampleAgg {
	out := make(map[string]*SampleAgg, len(lv.aggs))
	for _, name := range sortedKeys(lv.aggs) {
		c := *lv.aggs[name]
		out[name] = &c
	}
	drainInto(out, m)
	return out
}

// Digest hashes the session's observable state at the current barrier:
// window count, per-node lifecycle, merged counters, flow bookkeeping,
// in-flight packets and sample aggregates. Snapshot restore replays to
// the same barrier and verifies the digests match.
func (lv *Live) Digest() [sha256.Size]byte {
	sc := lv.sc
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(b[:], v); h.Write(b[:]) }
	putF := func(v float64) { put(math.Float64bits(v)) }
	put(uint64(lv.window))
	put(uint64(len(sc.Nodes)))
	for _, n := range sc.Nodes {
		flags := uint64(0)
		if n.Dead() {
			flags |= 1
		}
		if n.Configured() {
			flags |= 2
		}
		put(flags)
		addr := n.Addr()
		h.Write(addr[:])
	}
	counters := lv.mergedCounters()
	for _, name := range sortedKeys(counters) {
		h.Write([]byte(name))
		putF(counters[name])
	}
	for _, fi := range sortedKeys(sc.flowStats) {
		put(uint64(fi))
		put(uint64(sc.flowStats[fi].sent))
		put(uint64(sc.flowStats[fi].delivered))
	}
	inflight := make([]flowPacket, 0, len(sc.sent))
	//sbr6:commutative keys are collected then sorted before hashing
	for k := range sc.sent {
		inflight = append(inflight, k)
	}
	sort.Slice(inflight, func(a, b int) bool {
		if inflight[a].flow != inflight[b].flow {
			return inflight[a].flow < inflight[b].flow
		}
		return inflight[a].seq < inflight[b].seq
	})
	for _, k := range inflight {
		put(uint64(k.flow))
		put(uint64(k.seq))
		put(uint64(sc.sent[k]))
	}
	for _, name := range sortedKeys(lv.aggs) {
		a := lv.aggs[name]
		h.Write([]byte(name))
		put(uint64(a.Count))
		putF(a.Sum)
		putF(a.Min)
		putF(a.Max)
		for _, c := range a.Hist {
			put(uint64(c))
		}
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
