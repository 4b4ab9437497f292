package sbr6

import (
	"errors"
	"fmt"
	"time"

	"sbr6/internal/core"
	"sbr6/internal/scenario"
)

// WindowReport is one finalized measurement window streamed by a Session:
// the window's own delivery counts plus the per-window deltas of every
// merged node counter. Reports arrive in index order, each exactly once,
// lagged by the cooldown so no in-flight packet can still land in an
// emitted window.
type WindowReport = scenario.WindowReport

// ErrSession is returned by every Session method invoked on a session
// that is not serving — closed, or the paused form behind the deprecated
// Network wrapper.
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
	spec       *Scenario
	sc         *scenario.Scenario
	lv         *scenario.Live // nil in the paused form behind Network
	behaviors  map[int]core.Behavior
	journal    []sessionOp
	configured int
	closed     bool
}

// Serve instantiates the scenario with its default seed, bootstraps the
// network, runs the warmup and returns the session paused at its first
// window barrier with the configured flows running.
//
// A session needs a window size and a cooldown: when the scenario does
// not set them (WithWindows, WithCooldown), the window defaults to one
// second and the cooldown to one window. The scenario's tap and observers
// are honored for the session's own process but are not part of a
// snapshot — a resumed session starts with neither.
func Serve(s *Scenario) (*Session, error) {
	sess, err := newSession(s, s.cfg.Seed, true)
	if err != nil {
		return nil, err
	}
	sess.configured = sess.lv.Start()
	return sess, nil
}

// newSession builds the scenario instance behind every Session. live
// false is the paused form the deprecated Network wrapper sits on: the
// simulation is built but none of the session machinery (windowing,
// churn, bounded aggregation) is armed, so Network's batch path stays
// byte-identical to its historical behavior.
func newSession(spec *Scenario, seed int64, live bool) (*Session, error) {
	cfg, behaviors := spec.materialize(seed)
	if live {
		if cfg.WindowSize <= 0 {
			cfg.WindowSize = time.Second
		}
		if cfg.Cooldown <= 0 {
			cfg.Cooldown = cfg.WindowSize
		}
	}
	sc, err := scenario.Build(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range spec.advs {
		if a.bind != nil {
			a.bind(behaviors[a.node], sc)
		}
	}
	sess := &Session{spec: spec, sc: sc, behaviors: behaviors}
	if live {
		lv, err := scenario.NewLive(sc)
		if err != nil {
			return nil, err
		}
		sess.lv = lv
	}
	return sess, nil
}

// ok reports whether the session accepts commands.
func (s *Session) ok() error {
	if s.lv == nil || s.closed {
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
func (s *Session) Windows() int {
	if s.lv == nil {
		return 0
	}
	return s.lv.Windows()
}

// Now returns the current virtual time since the start of the run.
func (s *Session) Now() time.Duration { return time.Duration(s.sc.Now()) }

// LiveNodes reports how many nodes are currently part of the network.
func (s *Session) LiveNodes() int {
	if s.lv == nil {
		return 0
	}
	return s.lv.LiveNodes()
}

// NodeCount returns the total number of node slots ever created,
// including departed nodes — indexes are never reused.
func (s *Session) NodeCount() int { return len(s.sc.Nodes) }

// InFlight reports the tracked in-flight data packet count at the current
// barrier.
func (s *Session) InFlight() int {
	if s.lv == nil {
		return 0
	}
	return s.lv.InFlight()
}

// Node returns the i-th node's handle, or nil past the end. Departed
// nodes are still returned; their Configured() reads false.
func (s *Session) Node(i int) *Node {
	if i < 0 || i >= len(s.sc.Nodes) {
		return nil
	}
	return &Node{n: s.sc.Nodes[i], idx: i}
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
	s.journal = append(s.journal, sessionOp{Window: s.lv.Windows(), Kind: opInject, Name: name, Index: idx})
	return idx, nil
}

// Eject removes a node for good: its timers are cancelled, its radio
// port tombstoned and reclaimed, its binding-table verdict forgotten, and
// its counters banked so cumulative results survive the departure. The
// index is never reused. Node 0 — the DNS anchor — cannot leave.
func (s *Session) Eject(idx int) error {
	if err := s.ok(); err != nil {
		return err
	}
	if err := s.lv.Leave(idx); err != nil {
		return err
	}
	s.journal = append(s.journal, sessionOp{Window: s.lv.Windows(), Kind: opEject, Index: idx})
	return nil
}

// Query synthesizes the cumulative session result at the current barrier:
// counters merged across departed and live nodes, latency from the
// bounded aggregates, delivery totals per flow. Windows is nil — a
// session streams windows instead of retaining them.
func (s *Session) Query() *Result {
	if s.lv == nil {
		return nil
	}
	return publicResult(s.Seed(), s.lv.Result())
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
