// Live is the open-ended counterpart of Run: the same built Scenario
// advanced window by window under external control, with nodes joining
// and leaving between windows and every per-window measurement streamed
// and dropped instead of accumulated. It is the substrate of the public
// Session facade and the manetsim daemon.
//
// # Bounded memory
//
// A batch Run may buffer freely — it ends. A session must hold a
// steady-state heap over an unbounded run, so every open-ended buffer in
// the batch path is replaced here:
//
//   - sample series (latencies, DAD durations) are drained from every
//     node's metrics at each window barrier and folded into fixed-size
//     aggregates (count/sum/min/max plus a 64-bucket log histogram);
//   - the in-flight packet map is pruned of entries older than the
//     cooldown — past it the batch path would have counted the packet
//     lost anyway;
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
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"sbr6/internal/audit"
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

// Mean returns the aggregate mean, 0 when empty (never NaN: session
// results must survive reflect.DeepEqual).
func (a *SampleAgg) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Quantile estimates the q-quantile by nearest rank over the histogram,
// reporting the containing bucket's upper edge clamped to the observed
// maximum; 0 when empty.
func (a *SampleAgg) Quantile(q float64) float64 {
	if a.Count == 0 {
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
// node counter over the window's wall of simulation time. Reports are
// emitted in index order, each exactly once, lagged far enough that no
// in-flight packet can still land in the window.
type WindowReport struct {
	Index     int                `json:"index"`
	Start     time.Duration      `json:"start"`
	Sent      int                `json:"sent"`
	Delivered int                `json:"delivered"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Live      int                `json:"live"`     // live nodes at the window's closing barrier
	InFlight  int                `json:"inFlight"` // tracked packets at the window's closing barrier
}

// Live drives a built Scenario as an open-ended session. Construct with
// NewLive, then Start once, then any interleaving of Step / Join / Leave /
// queries. Not safe for concurrent use: one goroutine owns the session,
// exactly as one loop owns a simulator.
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
	return &Live{
		sc:           sc,
		w:            sc.Cfg.WindowSize,
		lag:          int((sc.Cfg.Cooldown+sc.Cfg.WindowSize-1)/sc.Cfg.WindowSize) + 1,
		churn:        rand.New(rand.NewSource(sc.Cfg.Seed ^ 0x632be59b)), //sbr6:allow simrng seed-derived churn stream owned by the session
		graveyard:    trace.NewMetrics(),
		aggs:         make(map[string]*SampleAgg),
		prevCounters: make(map[string]float64),
	}
}

// Start bootstraps the network, runs the warmup, and opens the first
// measurement window with the configured flows running and audit sweeps
// self-rescheduling. Returns how many nodes configured during bootstrap.
func (lv *Live) Start() int {
	sc := lv.sc
	configured := sc.Bootstrap()
	lv.startAudits()
	sc.RunFor(sc.Cfg.Warmup)
	sc.measureStart = sc.Now()
	sc.onLatency = func(_ int, seconds float64) { lv.observe("e2e.latency_s", seconds) }
	lv.startFlows()
	lv.started = true
	return configured
}

// Step runs exactly one measurement window and performs the barrier work:
// flow-log replay, in-flight pruning, sample draining, counter deltas, and
// lagged window finalization.
func (lv *Live) Step() {
	sc := lv.sc
	sc.RunFor(lv.w)
	// RunFor has replayed the region flow logs, so the bookkeeping below
	// sees a fully settled window.
	lv.windowRing(lv.window) // materialize the window even if nothing was sent
	lv.window++

	// Prune in-flight entries past the cooldown: the batch path would
	// have counted them lost at run end; a session must not hold them
	// forever waiting for a delivery that can no longer be attributed.
	horizon := sc.Now().Add(-sc.Cfg.Cooldown)
	//sbr6:commutative age-threshold deletes touch disjoint keys and no surviving state
	for k, at := range sc.sent {
		if at < horizon {
			delete(sc.sent, k)
		}
	}

	for _, n := range sc.Nodes {
		lv.drainInto(n.Metrics())
	}
	lv.pendingDeltas = append(lv.pendingDeltas, lv.counterDelta())
	for lv.emitNext <= lv.window-lv.lag {
		lv.finalizeOldest()
	}
}

// windowRing extends the retained window ring through absolute index idx.
func (lv *Live) windowRing(idx int) *WindowStat { return lv.sc.windowAt(idx) }

// drainInto folds one node's drained sample series into the session
// aggregates.
func (lv *Live) drainInto(m *trace.Metrics) {
	//sbr6:commutative each drained series folds into its own name's aggregate; series keep their order
	for name, series := range m.DrainSamples() {
		agg := lv.aggs[name]
		if agg == nil {
			agg = &SampleAgg{}
			lv.aggs[name] = agg
		}
		for _, v := range series {
			agg.Observe(v)
		}
	}
}

// observe folds one sample directly into a session aggregate — the live
// flow path records end-to-end latency here instead of on a node, so a
// source's departure cannot strand samples.
func (lv *Live) observe(name string, v float64) {
	agg := lv.aggs[name]
	if agg == nil {
		agg = &SampleAgg{}
		lv.aggs[name] = agg
	}
	agg.Observe(v)
}

// counterDelta merges every counter (live nodes + graveyard) and returns
// the per-name change since the previous barrier, keeping the merged
// snapshot as the new baseline.
func (lv *Live) counterDelta() map[string]float64 {
	cur := lv.mergedCounters()
	delta := make(map[string]float64)
	for _, name := range sortedNames(cur) {
		if d := cur[name] - lv.prevCounters[name]; d != 0 {
			delta[name] = d
		}
	}
	lv.prevCounters = cur
	return delta
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
	w := WindowStat{Start: time.Duration(lv.emitNext) * lv.w}
	if len(sc.windows) > 0 {
		w = sc.windows[0]
		sc.windows = sc.windows[1:]
	}
	var delta map[string]float64
	if len(lv.pendingDeltas) > 0 {
		delta = lv.pendingDeltas[0]
		lv.pendingDeltas = lv.pendingDeltas[1:]
	}
	sc.winBase = lv.emitNext + 1
	if lv.OnWindow != nil && !lv.Suppress {
		lv.OnWindow(WindowReport{
			Index:     lv.emitNext,
			Start:     w.Start,
			Sent:      w.Sent,
			Delivered: w.Delivered,
			Counters:  delta,
			Live:      lv.LiveNodes(),
			InFlight:  len(sc.sent),
		})
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
	lv.scheduleAudit(idx, n)
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
	lv.drainInto(n.Metrics())
	lv.graveyard.Merge(n.Metrics())
	n.Shutdown()
	sc.eng.RemoveNode(radio.NodeID(idx))
	return nil
}

// startAudits arms the self-rescheduling audit sweep chain for every
// build-time node (the batch path pre-schedules a fixed span instead; an
// open-ended session cannot).
func (lv *Live) startAudits() {
	if lv.sc.Cfg.Protocol.Audit.Period <= 0 {
		return
	}
	for i, n := range lv.sc.Nodes {
		lv.scheduleAudit(i, n)
	}
}

// scheduleAudit starts node i's audit chain at its seed-stable phase
// offset. Each firing reschedules the next on the node's own simulator
// (ownership is inherited), and the chain ends when the node departs.
func (lv *Live) scheduleAudit(i int, n *core.Node) {
	sc := lv.sc
	period := sc.Cfg.Protocol.Audit.Period
	if period <= 0 {
		return
	}
	ns := sc.eng.NodeSim(radio.NodeID(i))
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

// startFlows arms the configured CBR flows as self-rescheduling chains —
// open-ended, unlike the batch path's pre-scheduled send lists. A flow
// pauses forever when its source departs; a departed destination simply
// stops delivering.
func (lv *Live) startFlows() {
	sc := lv.sc
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
			srcSim.After(f.Interval, tick)
		}
		sc.eng.ScheduleOwnedAt(srcID, sc.Now().Add(f.Start+f.Interval), tick)
	}
}

// Result synthesizes the cumulative session result at the current
// barrier: counters merged across graveyard and live nodes, latency from
// the bounded aggregates (never NaN), totals from the flow stats. The
// Windows slice is nil — sessions stream windows instead of retaining
// them.
func (lv *Live) Result() *Result {
	res := lv.sc.result(lv.merged())
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
	if lat, ok := lv.aggs["e2e.latency_s"]; ok {
		res.LatencyMean = lat.Mean()
		res.LatencyP95 = lat.Quantile(0.95)
	}
	return res
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
	for _, name := range sortedNames(counters) {
		h.Write([]byte(name))
		putF(counters[name])
	}
	flows := make([]int, 0, len(sc.flowStats))
	for fi := range sc.flowStats {
		flows = append(flows, fi)
	}
	sort.Ints(flows)
	for _, fi := range flows {
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
	aggNames := make([]string, 0, len(lv.aggs))
	//sbr6:commutative keys are collected then sorted before hashing
	for name := range lv.aggs {
		aggNames = append(aggNames, name)
	}
	sort.Strings(aggNames)
	for _, name := range aggNames {
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
