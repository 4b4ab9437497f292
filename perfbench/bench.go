package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"sort"
	"time"

	"sbr6"
)

// outDir holds the daemon workload's socket and the traced run's span
// list. It is relative to the checkout, which keeps the socket path under
// the unix limit of about a hundred bytes.
const outDir = ".bench_build/perfbench"

// ops counts the operations a run attempts and how many fail: every call
// into the program, every node bootstrap or join, and every output check.
type ops struct {
	attempted, failed int
	log               io.Writer
}

// call records one call into the program.
func (o *ops) call(what string, err error) bool {
	return o.check(err == nil, "%s: %v", what, err)
}

// check records one output check.
func (o *ops) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		fmt.Fprintf(o.log, "FAILED "+format+"\n", args...)
	}
	return ok
}

// windowSums accumulates streamed window reports. A report's Sent and
// Delivered count the packets sent in its window and how many of those
// arrived within the cooldown.
type windowSums struct {
	reports         int
	sent, delivered int
	counters        map[string]float64
}

func (s *windowSums) add(r sbr6.WindowReport) {
	if s.counters == nil {
		s.counters = make(map[string]float64)
	}
	s.reports++
	s.sent += r.Sent
	s.delivered += r.Delivered
	for k, v := range r.Counters {
		s.counters[k] += v
	}
}

// queryResult is the part of a cumulative Query the benchmark reads.
type queryResult struct {
	Configured, DADFailed  int
	TxFrames, UnicastFails uint64
}

// totals sums the measured-phase deltas of every replicate's Query.
type totals struct {
	txFrames, unicastFails uint64
	configured, dadFailed  int // at each replicate's last barrier
}

func (t *totals) add(q0, q1 queryResult) {
	t.txFrames += q1.TxFrames - q0.TxFrames
	t.unicastFails += q1.UnicastFails - q0.UnicastFails
	t.configured += q1.Configured
	t.dadFailed += q1.DADFailed
}

// runtimeDelta sums runtime counters over the measured phases.
type runtimeDelta struct {
	gcCPU                           float64
	gcCycles, allocBytes, allocObjs uint64
}

func (d *runtimeDelta) add(a, b runtimeStats) {
	d.gcCPU += b.gcCPU - a.gcCPU
	d.gcCycles += b.gcCycles - a.gcCycles
	d.allocBytes += b.allocBytes - a.allocBytes
	d.allocObjs += b.allocObjs - a.allocObjs
}

// pass is one execution of a workload: its replicates run one after
// another, and their samples are pooled.
type pass struct {
	w       workload
	seed    int64
	windows int // measured windows per replicate
	ops     *ops
	tr      *tracer   // nil when untraced
	prof    *profiler // nil when untraced

	setupWall, setupCPU []float64 // seconds, one per replicate
	windowWall          []float64 // seconds, one per measured advance
	advWall, advCPU     time.Duration
	measureCPU          time.Duration
	snapMs, callMs      []float64
	snapBytes           []float64
	resumeS             []float64
	peakHeap            []float64 // bytes, each replicate's highest live heap at a barrier
	rt                  runtimeDelta
	q                   totals
	// all holds every streamed report; measured only those of windows
	// after the warm one. Report 0 of a replicate carries its bootstrap.
	all, measured windowSums
	digest        hash.Hash
}

func (p *pass) onWindow(r sbr6.WindowReport) {
	p.all.add(r)
	if r.Index > 0 {
		p.measured.add(r)
	}
}

func (p *pass) totalWindows() int { return p.windows * p.w.replicates }

// run executes every replicate. An error means the pass could not go on;
// failed calls and checks that leave it able to continue are counted in
// ops instead.
func (p *pass) run() error {
	p.digest = sha256.New()
	for r := 0; r < p.w.replicates; r++ {
		in := makeInputs(p.w, p.seed*100+int64(r))
		if err := p.replicate(in); err != nil {
			return fmt.Errorf("replicate %d: %w", r, err)
		}
	}
	return nil
}

func (p *pass) replicate(in inputs) error {
	sess, err := p.setup(in)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	var ctl control
	if p.w.daemon {
		// The daemon's serve loop inherits this span's label, so the
		// session work it does on the client's behalf is labelled too.
		p.tr.do("serve", func() { ctl, err = newRemote(sess, outDir, p.onWindow) })
	} else {
		ctl, err = newDirect(sess, p.onWindow)
	}
	if !p.ops.call("start control", err) {
		return err
	}
	f, err := p.measure(ctl, in)
	p.ops.call("stop control", ctl.stop())
	if err != nil {
		return err
	}
	p.verify(sess, f)
	sess.Close()
	p.resume(f)
	return nil
}

// setup builds and serves one scenario: NewScenario until Serve returns a
// session paused at its first window barrier.
func (p *pass) setup(in inputs) (*sbr6.Session, error) {
	runtime.GC() // every set-up starts from a collected heap
	var sess *sbr6.Session
	var err error
	p.prof.start()
	t := now()
	p.tr.do("setup", func() {
		var sc *sbr6.Scenario
		if sc, err = sbr6.NewScenario(p.w.options(in)...); !p.ops.call("NewScenario", err) {
			return
		}
		sess, err = sbr6.Serve(sc)
		p.ops.call("Serve", err)
	})
	wall, cpu := t.since()
	p.prof.stop("setup")
	if err != nil {
		return nil, err
	}
	p.setupWall = append(p.setupWall, wall.Seconds())
	p.setupCPU = append(p.setupCPU, cpu.Seconds())
	p.ops.attempted += p.w.nodes
	if bad := p.w.nodes - sess.Configured(); bad > 0 {
		p.ops.failed += bad
		fmt.Fprintf(p.ops.log, "FAILED bootstrap: %d of %d nodes did not configure\n", bad, p.w.nodes)
	}
	return sess, nil
}

// barrier is the cumulative Query and the snapshot taken at one window
// barrier, with no mutation between them.
type barrier struct{ query, snap []byte }

// final is what one replicate's measured phase leaves for the checks.
type final struct {
	first, last barrier // after the warm window, after the last window
	q0, q1      queryResult
	joined      []int // indexes of injected nodes
}

// measure runs the warm window, then the measured windows. Each measured
// window is, in order: the daemon workload's joins and leaves, one
// advance, a query and a snapshot.
func (p *pass) measure(ctl control, in inputs) (final, error) {
	var f final
	p.tr.do("warm", func() { p.ops.call("advance (warm)", ctl.advance()) })
	var err error
	if f.first, f.q0, err = p.barrier(ctl); err != nil {
		return f, err
	}

	var pool []int // joiners from earlier windows, still live
	var peak uint64
	p.prof.start()
	rt0 := readRuntime()
	start := now()
	p.tr.do("measure", func() {
		for i := 0; i < p.windows; i++ {
			if p.w.daemon {
				fresh := make([]int, 0, joinsPerWindow)
				for k := 0; k < joinsPerWindow; k++ {
					name := joinName(len(f.joined))
					var idx int
					p.timedCall("inject", func() (err error) { idx, err = ctl.inject(name); return })
					f.joined = append(f.joined, idx)
					fresh = append(fresh, idx)
				}
				for k := 0; k < joinsPerWindow && len(pool) > 0; k++ {
					j := in.picks.Intn(len(pool))
					victim := pool[j]
					pool = append(pool[:j], pool[j+1:]...)
					p.timedCall("eject", func() error { return ctl.eject(victim) })
				}
				pool = append(pool, fresh...)
			}
			t := now()
			var err error
			p.tr.do("window", func() { err = ctl.advance() })
			wall, cpu := t.since()
			p.ops.call("advance", err)
			p.windowWall = append(p.windowWall, wall.Seconds())
			p.advWall += wall
			p.advCPU += cpu
			peak = max(peak, readRuntime().liveHeap)
			p.timedCall("query", func() (err error) { f.last.query, err = ctl.query(); return })
			t = now()
			p.tr.do("snapshot", func() { f.last.snap, err = ctl.snapshot() })
			snapWall, _ := t.since()
			if p.ops.call("snapshot", err) {
				p.snapMs = append(p.snapMs, snapWall.Seconds()*1e3)
			}
		}
	})
	_, cpu := start.since()
	p.measureCPU += cpu
	p.rt.add(rt0, readRuntime())
	p.prof.stop("measure")
	p.peakHeap = append(p.peakHeap, float64(peak))
	if len(f.last.query) == 0 || len(f.last.snap) == 0 {
		return f, fmt.Errorf("no final query or snapshot")
	}
	if err := json.Unmarshal(f.last.query, &f.q1); !p.ops.call("final query decode", err) {
		return f, err
	}
	p.snapBytes = append(p.snapBytes, float64(len(f.last.snap)))
	p.q.add(f.q0, f.q1)
	return f, nil
}

// barrier takes a query and a snapshot at the current barrier.
func (p *pass) barrier(ctl control) (barrier, queryResult, error) {
	var b barrier
	var q queryResult
	var err error
	if b.query, err = ctl.query(); !p.ops.call("query", err) {
		return b, q, err
	}
	if err = json.Unmarshal(b.query, &q); !p.ops.call("query decode", err) {
		return b, q, err
	}
	b.snap, err = ctl.snapshot()
	p.ops.call("snapshot", err)
	return b, q, err
}

// timedCall runs one control call as an "rpc" span and records its round
// trip.
func (p *pass) timedCall(what string, f func() error) {
	t := now()
	var err error
	p.tr.do("rpc", func() { err = f() })
	wall, _ := t.since()
	if p.ops.call(what, err) {
		p.callMs = append(p.callMs, wall.Seconds()*1e3)
	}
}

// verify checks a replicate's outputs at its last measured barrier and
// folds them into the run's digest.
func (p *pass) verify(sess *sbr6.Session, f final) {
	seen := make(map[sbr6.Addr]int)
	for i := 0; i < sess.NodeCount(); i++ {
		n := sess.Node(i)
		if !n.Configured() || n.Departed() {
			continue
		}
		prev, dup := seen[n.Addr()]
		p.ops.check(!dup, "address of node %d duplicates node %d", i, prev)
		seen[n.Addr()] = i
	}
	for _, idx := range f.joined {
		n := sess.Node(idx)
		p.ops.check(n != nil && (n.Configured() || n.Departed()), "joined node %d did not configure", idx)
	}
	if p.w.allConfigure {
		p.ops.check(f.q1.DADFailed == 0 && f.q1.Configured == sess.NodeCount(),
			"configured %d of %d nodes, want all", f.q1.Configured, sess.NodeCount())
	}
	p.digest.Write(f.last.snap)
	p.digest.Write(f.last.query)
}

// resume rebuilds a session from a snapshot and checks that it answers
// the Query the original gave at the snapshot's barrier. The daemon
// workload resumes its final snapshot, whose replay grows with the
// session; the in-process workloads resume the one taken after the warm
// window, which costs a rebuild, a bootstrap replay and the digest check.
func (p *pass) resume(f final) {
	b := f.first
	if p.w.daemon {
		b = f.last
	}
	runtime.GC()
	p.prof.start()
	t := now()
	var rs *sbr6.Session
	var err error
	p.tr.do("resume", func() { rs, err = sbr6.Resume(b.snap) })
	wall, _ := t.since()
	p.prof.stop("resume")
	if !p.ops.call("Resume", err) {
		return
	}
	p.resumeS = append(p.resumeS, wall.Seconds())
	q, err := json.Marshal(rs.Query())
	p.ops.call("Query (resumed)", err)
	p.ops.check(bytes.Equal(q, b.query), "resumed Query differs from the original at the snapshot barrier")
	rs.Close()
}

// outputs returns the digest of every replicate's simulated outputs: its
// final snapshot, which embeds the session's state digest, its final
// Query, and the counters it streamed.
func (p *pass) outputs() string {
	names := make([]string, 0, len(p.all.counters))
	for k := range p.all.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(p.digest, "%s=%v;", k, p.all.counters[k])
	}
	return fmt.Sprintf("%x", p.digest.Sum(nil))
}
