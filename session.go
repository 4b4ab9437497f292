package sbr6

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"sbr6/internal/core"
	"sbr6/internal/scenario"
	"sbr6/internal/wire"
)

// WindowReport is one finalized measurement window, streamed by a Session
// and by a Runner's Observer: the window's own delivery counts plus the
// per-window deltas of every merged node counter. Reports arrive in index
// order, each exactly once, lagged by the cooldown so no in-flight packet
// can still land in an emitted window.
type WindowReport = scenario.WindowReport

// ErrSession is returned by every Session method invoked on a closed
// session.
var ErrSession = errors.New("sbr6: session not serving")

// Journal op kinds. Every external mutation of a live session is recorded
// as a window-stamped op so a snapshot can replay the exact run.
const (
	opInject = "inject"
	opEject  = "eject"
)

// sessionOp is one barrier-stamped external mutation: Window is how many
// measurement windows had fully run when the op was applied.
type sessionOp struct {
	Window int    `json:"window"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Index  int    `json:"index"`
}

// Session is a long-lived simulation under external control: the network
// bootstraps once and then advances window by window while nodes join and
// leave, windows stream out, and the whole run can be snapshotted and
// resumed in another process. Obtain one with Serve (or Resume), then
// drive it from a single goroutine — a Session is single-threaded like
// the simulator underneath it.
//
// Every mutating call happens at a window barrier: the event loop is idle
// (or every region of the sharded engine has quiesced), so control-plane
// operations never interleave with simulation events and a session is
// reproducible from its seed plus its op journal alone.
type Session struct {
	spec *Scenario
	sc   *scenario.Scenario
	lv   *scenario.Live
	// journal is the op journal as Snapshot writes it: each op's JSON
	// object, comma-separated, in the order the ops were applied.
	journal []byte
	// head is the snapshot's fixed part, encoded at the first Snapshot.
	head       []byte
	configured int
	closed     bool
	// unwrapped is set once Node.Unwrap hands out a node's protocol
	// stack, whose caller may bump counters at any barrier: from then on
	// every Query and Snapshot merges the counters afresh.
	unwrapped bool
}

// Serve instantiates the scenario with its default seed, bootstraps the
// network, arms the audit sweep, runs the warmup and returns the session
// paused at its first window barrier with the configured flows running.
// The flows send until the scenario's Duration has passed since the
// warmup, so a session meant to run longer sets WithDuration to cover it.
//
// A session needs a window size and a cooldown: when the scenario does
// not set them (WithWindows, WithCooldown), the window defaults to one
// second and the cooldown to one window. The scenario's tap is honored
// for the session's own process but is not part of a snapshot — a
// resumed session starts without it.
func Serve(s *Scenario) (*Session, error) {
	sess, err := newSession(s, s.cfg.Seed)
	if err != nil {
		return nil, err
	}
	sess.configured = sess.lv.Start()
	return sess, nil
}

// newSession builds the scenario instance behind every Session, armed
// for windowing, churn and bounded aggregation but not yet started.
func newSession(spec *Scenario, seed int64) (*Session, error) {
	sc, _, err := spec.instantiate(seed)
	if err != nil {
		return nil, err
	}
	return &Session{spec: spec, sc: sc, lv: scenario.NewLive(sc)}, nil
}

// ok reports whether the session accepts commands.
func (s *Session) ok() error {
	if s.closed {
		return ErrSession
	}
	return nil
}

// Seed returns the seed the session was instantiated from.
func (s *Session) Seed() int64 { return s.sc.Cfg.Seed }

// Configured returns how many nodes completed secure DAD during the
// initial bootstrap (joined nodes are not counted here; see Query).
func (s *Session) Configured() int { return s.configured }

// Windows reports how many measurement windows have fully run.
func (s *Session) Windows() int { return s.lv.Windows() }

// Now returns the current virtual time since the start of the run.
func (s *Session) Now() time.Duration { return time.Duration(s.sc.Now()) }

// LiveNodes reports how many nodes are currently part of the network.
func (s *Session) LiveNodes() int { return s.lv.LiveNodes() }

// NodeCount returns the total number of node slots ever created,
// including departed nodes — indexes are never reused.
func (s *Session) NodeCount() int { return len(s.sc.Nodes) }

// InFlight reports the tracked in-flight data packet count at the current
// barrier.
func (s *Session) InFlight() int { return s.lv.InFlight() }

// Node returns the i-th node's handle, or nil past the end. Departed
// nodes are still returned; their Configured() reads false.
func (s *Session) Node(i int) *Node {
	if i < 0 || i >= len(s.sc.Nodes) {
		return nil
	}
	return &Node{n: s.sc.Nodes[i], idx: i, s: s}
}

// Advance runs the given number of measurement windows. Windows that
// fall past the emission lag are finalized and streamed to the Stream
// callback as they close.
func (s *Session) Advance(windows int) error {
	if err := s.ok(); err != nil {
		return err
	}
	if windows < 0 {
		return fmt.Errorf("sbr6: Advance(%d): window count must not be negative", windows)
	}
	for i := 0; i < windows; i++ {
		s.lv.Step()
	}
	return nil
}

// Inject admits a new node into the running network: a fresh identity on
// the session's seed-derived streams, a spawn position from the churn
// stream, and a full secure bootstrap (DAD with the objection window)
// exactly like a build-time node. name optionally registers a domain name
// during DAD. Returns the new node's index. The op is journaled, so it
// replays under snapshot restore.
func (s *Session) Inject(name string) (int, error) {
	if err := s.ok(); err != nil {
		return 0, err
	}
	idx, err := s.lv.Join(name, nil)
	if err != nil {
		return 0, err
	}
	s.record(sessionOp{Window: s.lv.Windows(), Kind: opInject, Name: name, Index: idx})
	return idx, nil
}

// Eject removes a node for good: its timers are cancelled, its radio
// port tombstoned and reclaimed, and its counters banked so cumulative
// results survive the departure. The index is never reused. Node 0 — the
// DNS anchor — cannot leave.
func (s *Session) Eject(idx int) error {
	if err := s.ok(); err != nil {
		return err
	}
	if err := s.lv.Leave(idx); err != nil {
		return err
	}
	s.record(sessionOp{Window: s.lv.Windows(), Kind: opEject, Index: idx})
	return nil
}

// record appends op to the journal.
func (s *Session) record(op sessionOp) {
	b, _ := json.Marshal(op) // ints and strings: cannot fail
	if len(s.journal) > 0 {
		s.journal = append(s.journal, ',')
	}
	s.journal = append(s.journal, b...)
}

// Query synthesizes the cumulative session result at the current barrier:
// counters merged across departed and live nodes, latency from the
// bounded aggregates, delivery totals per flow. Windows is nil — a
// session streams windows instead of retaining them.
func (s *Session) Query() *Result {
	s.settle()
	return publicResult(s.Seed(), s.lv.Result())
}

// settle readies the barrier's counter merge for a read. Advance merges
// the counters once per window; Inject, Eject and the Node calls that run
// protocol code drop that merge. An unwrapped node can run protocol code
// at any time, so once one is handed out, every read merges afresh.
func (s *Session) settle() {
	if s.unwrapped {
		s.lv.Invalidate()
	}
}

// Stream registers f to receive each finalized window; a nil f
// unsubscribes. Only one callback is active at a time. The callback runs
// inside Advance, on the caller's goroutine.
func (s *Session) Stream(f func(WindowReport)) error {
	if err := s.ok(); err != nil {
		return err
	}
	s.lv.OnWindow = f
	return nil
}

// Close marks the session closed; further commands return ErrSession.
// Closing is idempotent and never disturbs simulation state, so a final
// Snapshot taken before Close stays valid.
func (s *Session) Close() error {
	s.closed = true
	return nil
}

// Node is a handle on one MANET host inside a Session.
type Node struct {
	n   *core.Node
	idx int
	s   *Session
}

// Index returns the node's position in the scenario.
func (nd *Node) Index() int { return nd.idx }

// Addr returns the node's current (CGA-bound) address.
func (nd *Node) Addr() Addr { return nd.n.Addr() }

// Name returns the domain name the node registered, if any.
func (nd *Node) Name() string { return nd.n.Name() }

// Configured reports whether the node completed secure DAD.
func (nd *Node) Configured() bool { return nd.n.Configured() }

// Departed reports whether the node has been ejected from its session.
func (nd *Node) Departed() bool { return nd.n.Dead() }

// Resolve performs a challenge-bound signed DNS lookup; cb fires when the
// answer arrives or the resolve times out.
func (nd *Node) Resolve(name string, cb func(Addr, bool)) {
	nd.s.lv.Invalidate()
	nd.n.Resolve(name, cb)
}

// SendData routes a payload to dst, running secure route discovery if no
// verified route is cached.
func (nd *Node) SendData(dst Addr, payload []byte) {
	nd.s.lv.Invalidate()
	nd.n.SendData(dst, payload)
}

// OnData registers a handler for data payloads addressed to this node,
// chaining before any previously registered handler.
func (nd *Node) OnData(f func(src Addr, payload []byte)) {
	prev := nd.n.OnData
	nd.n.OnData = func(src Addr, d *wire.Data) {
		f(src, d.Payload)
		if prev != nil {
			prev(src, d)
		}
	}
}

// Route reports the cached verified route to dst as its relay count
// (0 = direct neighbour) and whether one exists.
func (nd *Node) Route(dst Addr) (relays int, ok bool) {
	rr, ok := nd.n.RouteTo(dst)
	return len(rr), ok
}

// RebindAddress moves the node to a fresh CGA address and re-binds its
// registered name through the challenge-based update protocol.
func (nd *Node) RebindAddress(cb func(ok bool)) {
	nd.s.lv.Invalidate()
	nd.n.RebindAddress(cb)
}

// Metric reads one of the node's counters by name.
func (nd *Node) Metric(name string) float64 { return nd.n.Metrics().Get(name) }

// Unwrap returns the underlying protocol stack. The concrete type lives in
// an internal package; it is an escape hatch for in-module experiments
// that need the full surface: an attacker's state is its Behavior, and
// node 0's DNS() is the trust anchor's server. Its caller may run protocol
// code at any barrier, so from the first Unwrap on the session's Query
// and Snapshot merge every node's counters afresh.
func (nd *Node) Unwrap() *core.Node {
	nd.s.unwrapped = true
	return nd.n
}
