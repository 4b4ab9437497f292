package experiments

import (
	"fmt"
	"time"

	"sbr6"
	"sbr6/internal/core"
	"sbr6/internal/dnssrv"
	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
)

// E5 and E6: the remaining derived ablations of the index in
// experiments.go — the route cache / CREP mechanism, and the robustness of
// timeout-based DAD when the radio loses frames (the paper's
// silence-means-success assumption).

func init() {
	register("E5", "Derived: route cache and CREP ablation", runE5)
	register("E6", "Derived: DAD false-success rate vs frame loss", runE6)
}

func runE5(opt Options) []*trace.Table {
	t := trace.NewTable("E5: route cache on/off (grid 16, 3 flows converging on one sink)",
		"cache", "PDR", "discovery attempts", "CREPs served", "ctrl bytes", "latency (s)")

	for _, useCache := range []bool{true, false} {
		// Three sources discover the same destination in sequence, so the
		// later discoveries can be answered from intermediate caches (CREP).
		res := runSpec(opt, gridSpec(opt.Seed, 16, true,
			sbr6.WithRouteCache(useCache),
			sbr6.WithFlows(
				sbr6.Flow{From: 1, To: 15, Interval: 500 * time.Millisecond, Size: 64},
				sbr6.Flow{From: 2, To: 15, Interval: 500 * time.Millisecond, Size: 64, Start: 2 * time.Second},
				sbr6.Flow{From: 4, To: 15, Interval: 500 * time.Millisecond, Size: 64, Start: 4 * time.Second},
			),
			sbr6.WithDuration(15*time.Second),
		))
		t.Addf(fmt.Sprint(useCache), res.PDR, res.Metric("discovery.attempts"),
			res.Metric("crep.sent"), res.ControlBytes, res.LatencyMean)
	}
	return []*trace.Table{t}
}

// runE6 measures extended DAD's central fragility: the initiator treats
// silence as success, so if every copy of the objection is lost within the
// objection window, a duplicate address survives. We place a joiner whose
// identity collides with an existing owner k hops away and sweep the
// per-receiver frame loss rate.
func runE6(opt Options) []*trace.Table {
	losses := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	hopsList := []int{1, 2, 3}
	trials := 30
	if opt.Quick {
		losses = []float64{0, 0.2, 0.4}
		hopsList = []int{1, 2}
		trials = 8
	}

	sweep := func(title string, retries int) *trace.Table {
		t := trace.NewTable(title, "loss", "owner 1 hop", "owner 2 hops", "owner 3 hops")
		for _, loss := range losses {
			row := []string{fmt.Sprintf("%.1f", loss)}
			for _, hops := range hopsList {
				fails := 0
				for trial := 0; trial < trials; trial++ {
					if !dadTrial(opt.Seed+int64(trial)*7919, loss, hops, retries) {
						fails++
					}
				}
				row = append(row, fmt.Sprintf("%.2f", float64(fails)/float64(trials)))
			}
			for len(row) < 4 {
				row = append(row, "-")
			}
			t.Add(row...)
		}
		return t
	}
	bare := sweep("E6a: DAD false-success rate vs loss (no link-layer retries)", 0)
	arq := sweep("E6b: DAD false-success rate vs loss (3 link-layer retries)", 3)

	note := trace.NewTable("E6c: reading", "fact", "value")
	note.Add("failure mode", "all AREP copies lost within the objection window -> duplicate address kept")
	note.Add("protocol lever", "link-layer retries (and longer DAD windows) trade latency for soundness")
	note.Add("analytic shape", "false-success ~ P(objection lost) grows with loss rate and path length")
	return []*trace.Table{bare, arq, note}
}

// dadTrial builds a chain dns - r1 - ... - owner and a joiner adjacent to
// r1 whose identity clones the owner's. It reports whether DAD resolved
// the duplicate (true) or falsely succeeded (false).
func dadTrial(seed int64, loss float64, hops, retries int) bool {
	s := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.BroadcastJitter = time.Millisecond
	rcfg.LossRate = loss
	rcfg.UnicastRetries = retries
	medium := radio.New(s, rcfg, seed, nil)
	region := core.NewRegion(s, medium)
	pcfg := fastProtocol(true)
	pcfg.DAD.MaxRetries = 8

	dnsIdent, err := identity.New(pcfg.Suite, draw.New(seed, draw.Key, 0), "dns")
	if err != nil {
		panic(err)
	}
	mk := func(i int, ident *identity.Identity, pos geom.Point) *core.Node {
		n := core.New(region, radio.NodeID(i), ident, dnsIdent.Pub, pcfg, draw.New(seed, draw.Protocol, uint64(i)), nil)
		medium.AddNode(radio.NodeID(i), mobility.Static(pos).Position, 0, n)
		return n
	}

	// Chain: dns(0) at x=0, relays r1..r_{hops-1}, owner at x=hops*200.
	// The joiner sits next to the dns end, `hops` hops from the owner.
	nodes := []*core.Node{}
	dnsNode := mk(0, dnsIdent, geom.Point{X: 0})
	dcfg := dnssrv.DefaultConfig()
	dcfg.CommitDelay = 300 * time.Millisecond
	dnsNode.AttachDNS(dnssrv.New(s, dnsNode.Rand(), dnsIdent, dcfg, nil))
	nodes = append(nodes, dnsNode)
	var owner *core.Node
	for i := 1; i <= hops; i++ {
		ident, err := identity.New(pcfg.Suite, draw.New(seed, draw.Key, uint64(i)), "")
		if err != nil {
			panic(err)
		}
		n := mk(i, ident, geom.Point{X: float64(i) * 200})
		nodes = append(nodes, n)
		owner = n
	}

	// Bootstrap the stable chain first (loss applies throughout: nodes
	// still configure because silence is success; nothing here registers
	// names). The measured quantity is the joiner's round only.
	for i, n := range nodes {
		n := n
		s.After(time.Duration(i)*400*time.Millisecond, n.Start)
	}
	s.RunFor(time.Duration(len(nodes))*400*time.Millisecond + 2*time.Second)

	ownerIdent := owner.Identity()
	clone := &identity.Identity{Priv: ownerIdent.Priv, Pub: ownerIdent.Pub, Rn: ownerIdent.Rn, Addr: ownerIdent.Addr}
	joiner := mk(99, clone, geom.Point{X: 50}) // neighbour of dns and r1
	joiner.Start()
	s.RunFor(8 * time.Second)

	return joiner.Addr() != ownerIdent.Addr
}
