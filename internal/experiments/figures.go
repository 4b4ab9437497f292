package experiments

import (
	"fmt"
	"math"
	"time"

	"sbr6"
	"sbr6/internal/cga"
	"sbr6/internal/core"
	"sbr6/internal/dnssrv"
	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/sim"
	"sbr6/internal/trace"
)

// This file regenerates the paper's figures: the CGA address layout
// (Figure 1), the secure DAD walkthrough (Figure 2) and the secure route
// discovery walkthrough (Figure 3), each with the quantitative measurement
// a modern reader expects next to the diagram.

func init() {
	register("F1", "Figure 1: CGA address layout and takeover cost", runF1)
	register("F2", "Figure 2: secure DAD walkthrough and scaling", runF2)
	register("F3", "Figure 3: secure route discovery, RREP and CREP", runF3)
}

func runF1(opt Options) []*trace.Table {
	id, err := identity.New(identity.SuiteEd25519, draw.New(opt.Seed, draw.Key, 0), "")
	if err != nil {
		panic(err)
	}

	layout := trace.NewTable("F1a: site-local CGA layout (Figure 1)", "field", "bits", "value")
	a := id.Addr
	layout.Add("site-local prefix", "10", "1111111011 (fec0::/10)")
	layout.Add("all zeros", "38", "0")
	layout.Add("subnet ID", "16", fmt.Sprintf("%#04x", a.SubnetID()))
	layout.Add("H(PK, rn)", "64", fmt.Sprintf("%#016x", a.InterfaceID()))
	layout.Add("address", "128", a.String())
	layout.Add("rn", "64", fmt.Sprintf("%#x", id.Rn))
	layout.Add("verifies", "-", fmt.Sprint(cga.Verify(a, id.Pub.Bytes(), id.Rn)))

	// Second-preimage (address takeover) cost at reduced hash widths: the
	// attacker grinds modifiers under its own key until the truncated hash
	// matches the victim's. Expected work doubles per bit.
	widths := []int{8, 10, 12, 14, 16, 18, 20}
	if opt.Quick {
		widths = []int{8, 10, 12, 14, 16}
	}
	attacker, err := identity.New(identity.SuiteEd25519, draw.New(opt.Seed, draw.Key, 1), "")
	if err != nil {
		panic(err)
	}
	grind := draw.New(opt.Seed, draw.Protocol, 1)
	atk := trace.NewTable("F1b: brute-force address takeover vs interface-ID width",
		"bits", "expected attempts (2^w)", "measured attempts", "wall time").WallClock(3)
	for _, w := range widths {
		victim := cga.TruncatedID(id.Pub.Bytes(), id.Rn, w)
		start := time.Now()
		attempts := uint64(0)
		for {
			attempts++
			if cga.TruncatedID(attacker.Pub.Bytes(), grind.Uint64(), w) == victim {
				break
			}
		}
		atk.Add(fmt.Sprint(w), fmt.Sprintf("%.0f", math.Exp2(float64(w))),
			fmt.Sprint(attempts), time.Since(start).Round(time.Microsecond).String())
	}
	// Extrapolation row: at the paper's 64-bit width.
	atk.Add("64", "1.8e19", "(extrapolated: ~585 years at 1e9 H/s)", "-")
	return []*trace.Table{layout, atk}
}

// runF2 reproduces Figure 2: a joining host S collides first on the IP
// address (owner R objects with a signed AREP; R also warns the DNS), then
// on its domain name (the DNS objects with a signed DREP), and finally
// configures under a fresh address and name.
func runF2(opt Options) []*trace.Table {
	s := sim.New()
	rcfg := radio.DefaultConfig()
	rcfg.BroadcastJitter = time.Millisecond
	medium := radio.New(s, rcfg, opt.Seed, nil)
	region := core.NewRegion(s, medium)
	pcfg := fastProtocol(true)

	tr := &transcript{}
	names := []string{"dns", "printer"}
	mkNode := func(i int, ident *identity.Identity, dnsPub identity.PublicKey, pos geom.Point) *core.Node {
		n := core.New(region, radio.NodeID(i), ident, dnsPub, pcfg, draw.New(opt.Seed, draw.Protocol, uint64(i)), nil)
		n.Behavior = tap{tr: tr, name: fmt.Sprintf("n%d(%s)", i, names[min(i, len(names)-1)])}
		medium.AddNode(radio.NodeID(i), func(sim.Time) geom.Point { return pos }, 0, n)
		return n
	}

	dnsIdent, _ := identity.New(pcfg.Suite, draw.New(opt.Seed, draw.Key, 0), "dns")
	rIdent, _ := identity.New(pcfg.Suite, draw.New(opt.Seed, draw.Key, 1), "printer")
	dcfg := dnssrv.DefaultConfig()
	dcfg.CommitDelay = 300 * time.Millisecond
	dnsNode := mkNode(0, dnsIdent, dnsIdent.Pub, geom.Point{X: 0})
	dnsNode.AttachDNS(dnssrv.New(s, dnsNode.Rand(), dnsIdent, dcfg, nil))
	owner := mkNode(1, rIdent, dnsIdent.Pub, geom.Point{X: 200})

	// Bootstrap the stable network.
	dnsNode.Start()
	s.RunFor(time.Second)
	owner.Start()
	s.RunFor(2 * time.Second)

	// S joins with BOTH conflicts: its identity is a clone of R's (same
	// key, same modifier -> same CGA address) and it wants R's name too.
	clone := &identity.Identity{Priv: rIdent.Priv, Pub: rIdent.Pub, Rn: rIdent.Rn, Addr: rIdent.Addr, Name: "printer"}
	names = append(names, "S")
	joiner := mkNode(2, clone, dnsIdent.Pub, geom.Point{X: 320})
	joinStart := s.Now()
	joiner.Start()
	s.RunFor(5 * time.Second)

	walk := tr.table("F2a: secure DAD message walkthrough (duplicate IP, then duplicate name)", 60)

	outcome := trace.NewTable("F2b: walkthrough outcome", "fact", "value")
	outcome.Add("owner kept address", fmt.Sprint(owner.Addr() == rIdent.Addr))
	outcome.Add("joiner configured", fmt.Sprint(joiner.Configured()))
	outcome.Add("joiner address != owner's", fmt.Sprint(joiner.Addr() != owner.Addr()))
	outcome.Add("joiner final name", joiner.Name())
	outcome.Add("AREP objections accepted", trace.FormatFloat(joiner.Metrics().Get("dad.arep_accepted")))
	outcome.Add("DREP objections accepted", trace.FormatFloat(joiner.Metrics().Get("dad.drep_accepted")))
	outcome.Add("DNS warns accepted", trace.FormatFloat(dnsNode.Metrics().Get("dns.warns_accepted")))
	outcome.Add("joiner DAD latency", s.Now().Sub(joinStart).String()+" (window incl. retries)")

	// Scaling: DAD latency and flood cost vs network size.
	sizes := []int{5, 10, 15, 20, 25}
	if opt.Quick {
		sizes = []int{5, 10, 15}
	}
	sweep := trace.NewTable("F2c: DAD cost vs network size (grid, no conflicts)",
		"nodes", "mean DAD latency (s)", "AREQ floods", "control bytes", "configured")
	for _, n := range sizes {
		// Without a warmup the session stops at the end of bootstrap, so
		// the counters cover formation alone.
		sess := serveSpec(gridSpec(opt.Seed, n, true, sbr6.WithWarmup(0)))
		res := sess.Query()
		sweep.Addf(n, res.MetricMean("dad.latency_s"), res.Metric("tx.AREQ"), res.Metric("tx.bytes.control"),
			fmt.Sprintf("%d/%d", sess.Configured(), n))
	}
	return []*trace.Table{walk, outcome, sweep}
}

// runF3 reproduces Figure 3: S discovers D over a chain (per-hop SRR
// growth, signed RREP), then a second querier S' is answered from S's
// cache with a dual-signature CREP.
func runF3(opt Options) []*trace.Table {
	cfg := lineConfig(opt.Seed, 6, true)
	tr := &transcript{}
	cfg.Behaviors = map[int]core.Behavior{}
	labels := []string{"dns", "S'", "S", "I1", "I2", "D"}
	for i := 0; i < cfg.N; i++ {
		cfg.Behaviors[i] = tap{tr: tr, name: fmt.Sprintf("n%d(%s)", i, labels[i])}
	}
	sc, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	sc.Bootstrap()
	tr.rows = tr.rows[:0] // drop bootstrap noise; the figure is about routing

	// Phase 1: S (node 2) discovers and uses a route to D (node 5).
	dAddr := sc.Nodes[5].Addr()
	sc.Nodes[2].SendData(dAddr, []byte("figure-3-data"))
	sc.RunFor(3 * time.Second)
	phase1 := tr.table("F3a: RREQ flood, SRR growth and signed RREP (S -> D)", 40)

	// Phase 2: S' (node 1) asks for D; S answers from its attested cache.
	tr.rows = tr.rows[:0]
	sc.Nodes[1].SendData(dAddr, []byte("figure-3-crep"))
	sc.RunFor(3 * time.Second)
	phase2 := tr.table("F3b: cached route reply (CREP) answering S'", 40)

	facts := trace.NewTable("F3c: verification outcome", "fact", "value")
	met := trace.NewMetrics()
	for _, nd := range sc.Nodes {
		met.Merge(nd.Metrics())
	}
	relays1, ok1 := sc.Nodes[2].RouteTo(dAddr)
	relays2, ok2 := sc.Nodes[1].RouteTo(dAddr)
	facts.Add("S route to D", fmt.Sprintf("%d relays (found=%v)", len(relays1), ok1))
	facts.Add("S' route to D (via CREP)", fmt.Sprintf("%d relays (found=%v)", len(relays2), ok2))
	facts.Add("CREPs served", trace.FormatFloat(met.Get("crep.sent")))
	facts.Add("RREPs rejected", trace.FormatFloat(met.Get("rrep.rejected")))
	facts.Add("data delivered", trace.FormatFloat(met.Get("data.delivered")))

	// Scaling: discovery latency and verification count vs route length.
	lens := []int{2, 3, 4, 5, 6, 7}
	if opt.Quick {
		lens = []int{2, 3, 4}
	}
	sweep := trace.NewTable("F3d: discovery cost vs route length (chain)",
		"hops", "protocol", "discovery attempts", "verify ops", "ctrl bytes", "delivered")
	for _, hops := range lens {
		for _, secure := range []bool{true, false} {
			res := runSpec(opt, lineSpec(opt.Seed, hops+2, secure, // dns + chain of hops+1
				sbr6.WithFlows(sbr6.Flow{From: 1, To: hops + 1, Interval: time.Second, Size: 64}),
				sbr6.WithDuration(8*time.Second),
			))
			name := "baseline"
			if secure {
				name = "secure"
			}
			sweep.Addf(hops, name, res.Metric("discovery.attempts"), res.CryptoVerify,
				res.ControlBytes, fmt.Sprintf("%d/%d", res.Delivered, res.Sent))
		}
	}
	return []*trace.Table{phase1, phase2, facts, sweep}
}
