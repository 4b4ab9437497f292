package experiments

import (
	"context"
	"fmt"
	"time"

	"sbr6"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/scenario"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
	"sbr6/internal/wire"
)

// gridSpec declares an n-node grid scenario with tight timers through the
// public facade — the standard substrate of the sweep experiments. The
// walkthrough experiments that need packet transcripts or hand-built
// topologies (F2, F3a-c, E6) stay on the internal harness below.
func gridSpec(seed int64, n int, secure bool, extra ...sbr6.Option) *sbr6.Scenario {
	opts := []sbr6.Option{
		sbr6.WithSeed(seed),
		sbr6.WithNodes(n),
		sbr6.WithPlacement(sbr6.PlaceGrid),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(time.Second),
		sbr6.WithDuration(15 * time.Second),
		sbr6.WithCooldown(3 * time.Second),
	}
	if !secure {
		opts = append(opts, sbr6.WithBaseline())
	}
	sc, err := sbr6.NewScenario(append(opts, extra...)...)
	if err != nil {
		panic(err)
	}
	return sc
}

// lineSpec declares an n-node chain scenario (node 0 is the DNS end).
func lineSpec(seed int64, n int, secure bool, extra ...sbr6.Option) *sbr6.Scenario {
	return gridSpec(seed, n, secure, append([]sbr6.Option{sbr6.WithPlacement(sbr6.PlaceLine)}, extra...)...)
}

// runSpec executes one replicate through the facade Runner, streaming to
// the Options observer when one is set.
func runSpec(o Options, sc *sbr6.Scenario) *sbr6.Result {
	res, err := (&sbr6.Runner{Observer: o.Observer}).Run(context.Background(), sc)
	if err != nil {
		panic(err)
	}
	return res
}

// serveSpec bootstraps a spec as a live session for interactive driving.
func serveSpec(sc *sbr6.Scenario) *sbr6.Session {
	sess, err := sbr6.Serve(sc)
	if err != nil {
		panic(err)
	}
	return sess
}

// advance runs a session for the given number of windows.
func advance(sess *sbr6.Session, windows int) {
	if err := sess.Advance(windows); err != nil {
		panic(err)
	}
}

// fastProtocol returns protocol timers sized for simulation sweeps.
func fastProtocol(secure bool) core.Config {
	var cfg core.Config
	if secure {
		cfg = core.DefaultConfig()
	} else {
		cfg = core.BaselineConfig()
	}
	cfg.DAD.Timeout = 300 * time.Millisecond
	cfg.DiscoveryTimeout = 500 * time.Millisecond
	cfg.AckTimeout = 400 * time.Millisecond
	cfg.ResolveTimeout = 2 * time.Second
	return cfg
}

// gridConfig builds an n-node grid scenario with tight timers.
func gridConfig(seed int64, n int, secure bool) scenario.Config {
	side := 1
	for side*side < n {
		side++
	}
	cfg := scenario.DefaultConfig()
	cfg.Seed = seed
	cfg.N = n
	cfg.Placement = scenario.PlaceGrid
	cfg.Area = geom.Rect{W: 200 * float64(side), H: 200 * float64(side)}
	cfg.Protocol = fastProtocol(secure)
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Warmup = time.Second
	cfg.Duration = 15 * time.Second
	cfg.Cooldown = 3 * time.Second
	cfg.Flows = nil
	return cfg
}

// lineConfig builds an n-node chain scenario (node 0 is the DNS end).
func lineConfig(seed int64, n int, secure bool) scenario.Config {
	cfg := gridConfig(seed, n, secure)
	cfg.Placement = scenario.PlaceLine
	cfg.Spacing = 200
	return cfg
}

// cornerFlows returns CBR flows between opposite grid corners (and the two
// anti-diagonal corners for >=9 nodes), skipping the DNS node.
func cornerFlows(n int, interval time.Duration) []sbr6.Flow {
	side := 1
	for side*side < n {
		side++
	}
	flows := []sbr6.Flow{{From: 1, To: n - 1, Interval: interval, Size: 64}}
	if n >= 9 {
		flows = append(flows, sbr6.Flow{From: side - 1, To: n - side, Interval: interval, Size: 64})
	}
	return flows
}

// transcript records a packet trace across all nodes for the figure
// walkthrough experiments.
type transcript struct {
	rows []transcriptRow
}

type transcriptRow struct {
	at   sim.Time
	node string
	desc string
}

// tap is a pass-through Behavior that logs every packet a node receives.
type tap struct {
	tr   *transcript
	name string
}

// Intercept implements core.Behavior (always passes through).
func (t tap) Intercept(n *core.Node, pkt *wire.Packet, raw []byte) bool {
	t.tr.rows = append(t.tr.rows, transcriptRow{at: n.Sim().Now(), node: t.name, desc: describe(pkt)})
	return false
}

// DropForward implements core.Behavior.
func (tap) DropForward(*core.Node, *wire.Packet) bool { return false }

// describe renders a packet the way the paper's figures label messages.
func describe(pkt *wire.Packet) string {
	switch m := pkt.Msg.(type) {
	case *wire.AREQ:
		return fmt.Sprintf("AREQ(SIP=%s seq=%d DN=%q |RR|=%d)", short(m.SIP), m.Seq, m.DN, len(m.RR))
	case *wire.AREP:
		return fmt.Sprintf("AREP(SIP=%s |RR|=%d signed=%v)", short(m.SIP), len(m.RR), len(m.Sig) > 0)
	case *wire.DREP:
		return fmt.Sprintf("DREP(SIP=%s DN=%q)", short(m.SIP), m.DN)
	case *wire.RREQ:
		return fmt.Sprintf("RREQ(S=%s D=%s seq=%d |SRR|=%d)", short(m.SIP), short(m.DIP), m.Seq, len(m.SRR))
	case *wire.RREP:
		return fmt.Sprintf("RREP(S=%s D=%s seq=%d |RR|=%d)", short(m.SIP), short(m.DIP), m.Seq, len(m.RR))
	case *wire.CREP:
		return fmt.Sprintf("CREP(S'=%s S=%s D=%s |RR1|=%d |RR2|=%d)", short(m.S2IP), short(m.SIP), short(m.DIP), len(m.RRToS), len(m.RRToD))
	case *wire.RERR:
		return fmt.Sprintf("RERR(I=%s next=%s)", short(m.IIP), short(m.NIP))
	case *wire.Data:
		return fmt.Sprintf("DATA(flow=%d seq=%d %dB)", m.FlowID, m.Seq, len(m.Payload))
	case *wire.Ack:
		return fmt.Sprintf("ACK(flow=%d seq=%d)", m.FlowID, m.Seq)
	default:
		return pkt.Msg.Type().String()
	}
}

// rreqSizeAtHops returns the encoded size of a flooded secure RREQ with
// the given number of hop attestations and signature/key sizes.
func rreqSizeAtHops(hops, sigN, pkN int) int {
	a := ipv6.SiteLocal(0, 1)
	m := &wire.RREQ{SIP: a, DIP: ipv6.SiteLocal(0, 2), Seq: 1,
		SrcSig: make([]byte, sigN), SPK: make([]byte, pkN), Srn: 7}
	for i := 0; i < hops; i++ {
		m.SRR = append(m.SRR, wire.HopAttestation{IP: a, Sig: make([]byte, sigN), PK: make([]byte, pkN), Rn: 7})
	}
	return wire.EncodedSize(&wire.Packet{Src: a, Dst: ipv6.AllNodes, TTL: 64, Msg: m})
}

// short renders the last 16 bits of an address, enough to tell scripted
// nodes apart in a transcript.
func short(a ipv6.Addr) string {
	iid := a.InterfaceID()
	return fmt.Sprintf("..%04x", uint16(iid))
}

// table builds the transcript table, keeping at most limit rows (0 = all).
func (tr *transcript) table(title string, limit int) *trace.Table {
	t := trace.NewTable(title, "t", "node", "message")
	rows := tr.rows
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	for _, r := range rows {
		t.Add(r.at.String(), r.node, r.desc)
	}
	return t
}
