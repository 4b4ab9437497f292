package sbr6

import (
	"time"

	"sbr6/internal/core"
	"sbr6/internal/dnssrv"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// Network is one instantiated scenario: the simulator, medium and node
// stacks, deterministically derived from a seed. It is now a thin shim
// over a paused Session kept for the batch-style API — Build the network,
// poke it, Run it once to a Result.
//
// Deprecated: new interactive code should use Serve, which returns a
// Session with continuous node churn, streamed windows and
// snapshot/restore. Network remains fully supported for the batch path
// (Run and the Runner), whose results it keeps byte-identical.
//
// A Network is single-threaded like the simulator underneath it: never
// share one across goroutines.
type Network struct {
	session *Session
	nodes   []*Node
}

// Build instantiates the scenario with its default seed.
func (s *Scenario) Build() (*Network, error) { return s.BuildSeed(s.cfg.Seed) }

// BuildSeed instantiates the scenario with an overriding seed.
func (s *Scenario) BuildSeed(seed int64) (*Network, error) {
	sess, err := newSession(s, seed, false)
	if err != nil {
		return nil, err
	}
	nw := &Network{session: sess}
	for i, n := range sess.sc.Nodes {
		nw.nodes = append(nw.nodes, &Node{n: n, idx: i})
	}
	return nw, nil
}

// Seed returns the seed this instance was built from.
func (nw *Network) Seed() int64 { return nw.session.sc.Cfg.Seed }

// Size returns the node count, including the DNS server at index 0.
func (nw *Network) Size() int { return nw.session.sc.Cfg.N }

// Node returns the i-th node's handle (0 is the DNS server).
func (nw *Network) Node(i int) *Node { return nw.nodes[i] }

// Bootstrap staggers secure DAD across all nodes and runs until the last
// objection window closes; it returns how many configured successfully.
func (nw *Network) Bootstrap() int { return nw.session.sc.Bootstrap() }

// RunFor advances the simulation by d of virtual time through the
// engine's barrier loop.
func (nw *Network) RunFor(d time.Duration) { nw.session.sc.RunFor(d) }

// Now returns the current virtual time since the start of the run.
func (nw *Network) Now() time.Duration { return time.Duration(nw.session.sc.Now()) }

// Run executes the full experiment — bootstrap, warmup, measured traffic,
// cooldown — and returns the aggregated result. For parallel multi-seed
// execution or streaming observation, use a Runner instead; for an
// open-ended run under external control, use Serve.
func (nw *Network) Run() *Result { return publicResult(nw.Seed(), nw.session.sc.Run()) }

// Connected reports whether every node can currently reach every other.
func (nw *Network) Connected() bool { return nw.session.sc.Connected() }

// Metric sums a per-node counter over all nodes.
func (nw *Network) Metric(name string) float64 {
	sum := 0.0
	for _, nd := range nw.nodes {
		sum += nd.n.Metrics().Get(name)
	}
	return sum
}

// MetricMean returns the mean of a sample series merged over all nodes.
func (nw *Network) MetricMean(name string) float64 {
	m := trace.NewMetrics()
	for _, nd := range nw.nodes {
		m.Merge(nd.n.Metrics())
	}
	return m.Mean(name)
}

// AdversaryState returns the live attack state at a node (for example
// *attack.BlackHole with its drop counters) or nil for honest nodes.
// In-module experiments type-assert on it; its concrete types live in
// internal packages.
func (nw *Network) AdversaryState(node int) any {
	b, ok := nw.session.behaviors[node]
	if !ok {
		return nil
	}
	return b
}

// DNSServer exposes the trust anchor's server state (lookups, preloads,
// update handling). The concrete type lives in an internal package; it is
// an escape hatch for in-module experiments and examples.
func (nw *Network) DNSServer() *dnssrv.Server { return nw.session.sc.DNSSrv }

// Node is a handle on one MANET host inside a Network or a Session.
type Node struct {
	n   *core.Node
	idx int
}

// Index returns the node's position in the scenario.
func (nd *Node) Index() int { return nd.idx }

// Addr returns the node's current (CGA-bound) address.
func (nd *Node) Addr() Addr { return nd.n.Addr() }

// Name returns the domain name the node registered, if any.
func (nd *Node) Name() string { return nd.n.Name() }

// Configured reports whether the node completed secure DAD.
func (nd *Node) Configured() bool { return nd.n.Configured() }

// Departed reports whether the node has been ejected from a live session
// (always false inside a Network).
func (nd *Node) Departed() bool { return nd.n.Dead() }

// Resolve performs a challenge-bound signed DNS lookup; cb fires when the
// answer arrives or the resolve times out.
func (nd *Node) Resolve(name string, cb func(Addr, bool)) { nd.n.Resolve(name, cb) }

// SendData routes a payload to dst, running secure route discovery if no
// verified route is cached.
func (nd *Node) SendData(dst Addr, payload []byte) { nd.n.SendData(dst, payload) }

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
func (nd *Node) RebindAddress(cb func(ok bool)) { nd.n.RebindAddress(cb) }

// Metric reads one of the node's counters by name.
func (nd *Node) Metric(name string) float64 { return nd.n.Metrics().Get(name) }

// Unwrap returns the underlying protocol stack. The concrete type lives in
// an internal package; it is an escape hatch for in-module experiments
// that need the full surface.
func (nd *Node) Unwrap() *core.Node { return nd.n }
