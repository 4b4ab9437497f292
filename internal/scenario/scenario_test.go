package scenario

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/boot"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
)

// fastCfg shrinks every protocol timer so tests run quickly.
func fastCfg(secure bool, n int) Config {
	cfg := DefaultConfig()
	cfg.N = n
	cfg.Placement = PlaceGrid
	cfg.Area = geom.Rect{W: 200 * float64(gridSide(n)), H: 200 * float64(gridSide(n))}
	if secure {
		cfg.Protocol = core.DefaultConfig()
	} else {
		cfg.Protocol = core.BaselineConfig()
	}
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
	cfg.Protocol.AckTimeout = 400 * time.Millisecond
	cfg.Protocol.ResolveTimeout = 2 * time.Second
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Warmup = time.Second
	cfg.Duration = 10 * time.Second
	cfg.Cooldown = 3 * time.Second
	cfg.Flows = nil
	return cfg
}

func gridSide(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	cfg := fastCfg(true, 1)
	if _, err := Build(cfg); err == nil {
		t.Fatal("N=1 accepted")
	}
	cfg = fastCfg(true, 4)
	cfg.Preload = map[string]int{"x": 99}
	if _, err := Build(cfg); err == nil {
		t.Fatal("out-of-range preload accepted")
	}
	cfg = fastCfg(true, 4)
	cfg.Boot = boot.Kind(42)
	if _, err := Build(cfg); err == nil {
		t.Fatal("unknown boot policy accepted")
	}
}

// TestBootstrapPerCellConfiguresAll mirrors TestBootstrapConfiguresAll
// under the concurrent admission policy: same fully-addressed, unique
// outcome, a fraction of the virtual time.
func TestBootstrapPerCellConfiguresAll(t *testing.T) {
	cfg := fastCfg(true, 9)
	cfg.Boot = boot.PerCell
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Bootstrap(); got != 9 {
		t.Fatalf("configured %d of 9", got)
	}
	offs := sc.BootOffsets()
	if offs[0] != 0 {
		t.Fatalf("DNS anchor scheduled at %v, want 0", offs[0])
	}
	serial, err := Build(fastCfg(true, 9))
	if err != nil {
		t.Fatal(err)
	}
	serial.Bootstrap()
	if sc.Now() >= serial.Now() {
		t.Fatalf("per-cell formation (%v) not shorter than serial (%v)", sc.Now(), serial.Now())
	}
}

func TestBootstrapConfiguresAll(t *testing.T) {
	cfg := fastCfg(true, 9)
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Bootstrap(); got != 9 {
		t.Fatalf("configured %d of 9", got)
	}
	seen := make(map[ipv6.Addr]bool)
	for _, n := range sc.Nodes {
		if seen[n.Addr()] {
			t.Fatal("duplicate address after bootstrap")
		}
		seen[n.Addr()] = true
	}
}

func TestCleanRunDeliversEverything(t *testing.T) {
	cfg := fastCfg(true, 9)
	cfg.Flows = []Flow{
		{From: 1, To: 8, Interval: 500 * time.Millisecond, Size: 64},
		{From: 3, To: 5, Interval: 500 * time.Millisecond, Size: 64},
	}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	if res.Configured != 9 {
		t.Fatalf("configured = %d", res.Configured)
	}
	if res.PDR < 0.95 {
		t.Fatalf("clean-network PDR = %v (%d/%d)", res.PDR, res.Delivered, res.Sent)
	}
	if res.LatencyMean <= 0 || res.LatencyMean > 1 {
		t.Fatalf("latency mean = %v", res.LatencyMean)
	}
	if res.ControlBytes <= 0 || res.DataBytes <= 0 {
		t.Fatalf("byte accounting empty: %+v", res)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *Result {
		cfg := fastCfg(true, 9)
		cfg.Flows = []Flow{{From: 1, To: 7, Interval: 400 * time.Millisecond, Size: 32}}
		sc, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewLive(sc).Run(context.Background())
	}
	a, b := run(), run()
	if a.PDR != b.PDR || a.ControlBytes != b.ControlBytes || a.Delivered != b.Delivered ||
		a.CryptoSign != b.CryptoSign || a.LatencyMean != b.LatencyMean {
		t.Fatalf("runs diverged:\n  a=%v\n  b=%v", a, b)
	}
}

func TestSecureOverheadExceedsBaseline(t *testing.T) {
	run := func(secure bool) *Result {
		cfg := fastCfg(secure, 9)
		cfg.Flows = []Flow{{From: 1, To: 8, Interval: 500 * time.Millisecond, Size: 64}}
		sc, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return NewLive(sc).Run(context.Background())
	}
	sec, base := run(true), run(false)
	if sec.PDR < 0.95 || base.PDR < 0.95 {
		t.Fatalf("clean PDRs too low: secure=%v baseline=%v", sec.PDR, base.PDR)
	}
	if sec.ControlBytes <= base.ControlBytes {
		t.Fatalf("secure control bytes %v should exceed baseline %v", sec.ControlBytes, base.ControlBytes)
	}
	if base.CryptoSign != 0 || base.CryptoVerify != 0 {
		t.Fatalf("baseline should do no crypto: %v/%v", base.CryptoSign, base.CryptoVerify)
	}
	if sec.CryptoSign == 0 || sec.CryptoVerify == 0 {
		t.Fatal("secure run did no crypto")
	}
}

// blackHoleRun puts a forging black hole in the grid centre and measures a
// corner-to-corner flow.
func blackHoleRun(t *testing.T, secure bool) *Result {
	t.Helper()
	cfg := fastCfg(secure, 9)
	bh := &attack.BlackHole{ForgeCacheReplies: true}
	cfg.Behaviors = map[int]core.Behavior{4: bh} // grid centre
	cfg.Flows = []Flow{{From: 1, To: 8, Interval: 500 * time.Millisecond, Size: 64}}
	cfg.Duration = 15 * time.Second
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewLive(sc).Run(context.Background())
}

func TestBlackHoleCollapsesBaseline(t *testing.T) {
	res := blackHoleRun(t, false)
	if res.PDR > 0.2 {
		t.Fatalf("baseline PDR with forging black hole = %v, want near zero", res.PDR)
	}
}

func TestSecureProtocolSurvivesBlackHole(t *testing.T) {
	res := blackHoleRun(t, true)
	if res.PDR < 0.6 {
		t.Fatalf("secure PDR with black hole = %v (%d/%d), want most packets through",
			res.PDR, res.Delivered, res.Sent)
	}
	if res.Metrics.Get("crep.rejected") == 0 {
		t.Fatal("forged CREPs were never rejected")
	}
}

func TestFakeDNSPoisonsOnlyBaseline(t *testing.T) {
	resolveVia := func(secure bool) (ipv6.Addr, bool, *Scenario) {
		cfg := fastCfg(secure, 5)
		cfg.Placement = PlaceLine // dns - fake - client chain ensures relay
		cfg.Names = map[int]string{3: "server"}
		fake := &attack.FakeDNS{}
		cfg.Behaviors = map[int]core.Behavior{1: fake}
		sc, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc.Bootstrap()
		sc.RunFor(time.Second)
		var got ipv6.Addr
		var found bool
		sc.Nodes[2].Resolve("server", func(a ipv6.Addr, ok bool) { got, found = a, ok })
		sc.RunFor(8 * time.Second)
		return got, found, sc
	}

	// Baseline: the fake relay answers first and is believed.
	got, found, sc := resolveVia(false)
	fakeAddr := sc.Nodes[1].Addr()
	if !found || got != fakeAddr {
		t.Fatalf("baseline client not poisoned: got %v found=%v want %v", got, found, fakeAddr)
	}
	// Secure: the forged answer is rejected; the client is never poisoned
	// (the lookup may fail outright since the query was swallowed).
	got, found, sc = resolveVia(true)
	if found && got == sc.Nodes[1].Addr() {
		t.Fatal("secure client believed the fake DNS")
	}
	if sc.Nodes[2].Metrics().Get("dns.answer_rejected") == 0 {
		t.Fatal("forged answer never rejected")
	}
}

func TestPreloadedNameResolves(t *testing.T) {
	cfg := fastCfg(true, 5)
	cfg.Placement = PlaceLine
	cfg.Preload = map[string]int{"hq.manet": 4}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc.Bootstrap()
	var got ipv6.Addr
	var found bool
	sc.Nodes[2].Resolve("hq.manet", func(a ipv6.Addr, ok bool) { got, found = a, ok })
	sc.RunFor(6 * time.Second)
	if !found || got != sc.Nodes[4].Addr() {
		t.Fatalf("preloaded resolve = %v, %v; want %v", got, found, sc.Nodes[4].Addr())
	}
}

func TestRERRSpammerIsFlagged(t *testing.T) {
	cfg := fastCfg(true, 5)
	cfg.Placement = PlaceLine
	sp := &attack.RERRSpammer{}
	cfg.Behaviors = map[int]core.Behavior{2: sp}
	cfg.Protocol.RERRThreshold = 3
	cfg.Flows = []Flow{{From: 1, To: 4, Interval: 400 * time.Millisecond, Size: 32}}
	cfg.Duration = 20 * time.Second
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	if sp.Sent == 0 {
		t.Fatal("spammer never spammed")
	}
	if res.Metrics.Get("rerr.spammer_flagged") == 0 {
		t.Fatal("spammer never flagged")
	}
	spammer := sc.Nodes[2].Addr()
	if sc.Nodes[1].Credits().Get(spammer) > -50 {
		t.Fatalf("spammer credit = %v, want deeply negative", sc.Nodes[1].Credits().Get(spammer))
	}
}

func TestReplayerGainsNothing(t *testing.T) {
	cfg := fastCfg(true, 5)
	cfg.Placement = PlaceLine
	rp := &attack.Replayer{Delay: 2 * time.Second}
	cfg.Behaviors = map[int]core.Behavior{2: rp}
	cfg.Flows = []Flow{{From: 1, To: 4, Interval: 500 * time.Millisecond, Size: 32}}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	if rp.Replayed == 0 {
		t.Fatal("replayer never replayed")
	}
	// Replays must not break delivery, and every replayed route reply must
	// land as unsolicited/rejected rather than accepted.
	if res.PDR < 0.9 {
		t.Fatalf("PDR with replayer = %v", res.PDR)
	}
}

func TestWaypointMobilityRuns(t *testing.T) {
	cfg := fastCfg(true, 9)
	cfg.Mobility = MobilitySpec{Waypoint: true, MinSpeed: 1, MaxSpeed: 5, Pause: 2 * time.Second}
	cfg.Flows = []Flow{{From: 1, To: 8, Interval: 500 * time.Millisecond, Size: 64}}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	if res.Configured < 8 {
		t.Fatalf("configured = %d", res.Configured)
	}
	if res.Sent == 0 {
		t.Fatal("no traffic offered")
	}
	// Mobility may cost some packets; just require the network functioned.
	if res.Delivered == 0 {
		t.Fatal("nothing delivered under mobility")
	}
}

func TestIdentityChurnerChurns(t *testing.T) {
	cfg := fastCfg(true, 5)
	cfg.Placement = PlaceLine
	ch := &attack.IdentityChurner{Every: 3 * time.Second}
	cfg.Behaviors = map[int]core.Behavior{2: ch}
	cfg.Flows = []Flow{{From: 1, To: 4, Interval: 400 * time.Millisecond, Size: 32}}
	cfg.Duration = 15 * time.Second
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	NewLive(sc).Run(context.Background())
	if ch.Churns == 0 {
		t.Fatal("churner never changed identity")
	}
}

func TestLargeNetworkSmoke(t *testing.T) {
	// 49 nodes, grid, four cross flows: bootstrap completes, delivery is
	// near-perfect, and the run stays deterministic at scale.
	cfg := fastCfg(true, 49)
	cfg.Flows = []Flow{
		{From: 1, To: 48, Interval: 500 * time.Millisecond, Size: 64},
		{From: 6, To: 42, Interval: 500 * time.Millisecond, Size: 64},
		{From: 21, To: 27, Interval: 500 * time.Millisecond, Size: 64},
		{From: 45, To: 3, Interval: 500 * time.Millisecond, Size: 64},
	}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	if res.Configured != 49 {
		t.Fatalf("configured %d/49", res.Configured)
	}
	if res.PDR < 0.95 {
		t.Fatalf("large-network PDR = %v (%d/%d)", res.PDR, res.Delivered, res.Sent)
	}
}

func TestConnectivityProbe(t *testing.T) {
	cfg := fastCfg(true, 9)
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.Connected() {
		t.Fatalf("grid should be connected: %v", sc.Components())
	}
	// A line with a gap: spread two nodes far apart.
	cfg2 := fastCfg(true, 2)
	cfg2.Placement = PlaceLine
	cfg2.Spacing = 10000
	sc2, err := Build(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.Connected() {
		t.Fatal("10 km apart should not be connected")
	}
	if len(sc2.Components()) != 2 {
		t.Fatalf("components = %v", sc2.Components())
	}
}

func TestFlowStartOffset(t *testing.T) {
	cfg := fastCfg(true, 4)
	cfg.Placement = PlaceLine
	cfg.Duration = 6 * time.Second
	cfg.Flows = []Flow{{From: 1, To: 3, Interval: time.Second, Size: 16, Start: 4 * time.Second}}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := NewLive(sc).Run(context.Background())
	// A flow sends at Start + k·Interval for k ≥ 1, strictly before
	// Duration: the one send at 5 s fits the window.
	if res.Sent != 1 {
		t.Fatalf("sent = %d, want 1", res.Sent)
	}
	if res.Delivered != 1 {
		t.Fatalf("delivered = %d", res.Delivered)
	}
}

func TestResultString(t *testing.T) {
	r := &Result{PDR: 0.5, Delivered: 1, Sent: 2}
	if r.String() == "" {
		t.Fatal("empty summary")
	}
}

// Validation of the audit, partition and cell-fraction knobs.
func TestValidateAuditPartitionCellFraction(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig()
		cfg.Flows = nil
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"negative audit period", func(c *Config) { c.Protocol.Audit.Period = -time.Second }, "audit period"},
		{"cell fraction too large", func(c *Config) { c.BootCellFraction = 0.8 }, "cell fraction"},
		{"cell fraction negative", func(c *Config) { c.BootCellFraction = -0.1 }, "cell fraction"},
		{"partition swallows anchor", func(c *Config) { c.Partition.Nodes = c.N }, "anchors the main cluster"},
		{"partition negative gap", func(c *Config) { c.Partition = PartitionSpec{Nodes: 2, Gap: -1} }, "gap"},
		{"partition NaN speed", func(c *Config) { c.Partition = PartitionSpec{Nodes: 2, Speed: math.NaN()} }, "speed"},
		{"partition negative join", func(c *Config) { c.Partition = PartitionSpec{Nodes: 2, JoinAt: -time.Second} }, "join"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mutate(&cfg)
			_, err := Build(cfg)
			if err == nil {
				t.Fatal("invalid config accepted")
			}
			if !errors.Is(err, ErrConfig) {
				t.Fatalf("error does not wrap ErrConfig: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The cell-fraction knob genuinely changes per-cell bucketing: a widened
// fraction merges neighbouring buckets, so some offsets must move.
func TestBootCellFractionChangesSchedule(t *testing.T) {
	mk := func(frac float64) []time.Duration {
		cfg := DefaultConfig()
		cfg.N = 60
		cfg.Boot = boot.PerCell
		cfg.BootCellFraction = frac
		cfg.Flows = nil
		sc, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sc.BootOffsets()
	}
	def, wide := mk(0), mk(0.7)
	if reflect.DeepEqual(def, wide) {
		t.Fatal("widening the admission buckets left every offset unchanged")
	}
	if !reflect.DeepEqual(mk(0), mk(boot.DefaultCellFraction)) {
		t.Fatal("zero fraction does not match the explicit default")
	}
}

// A staged partition is disjoint from the main cluster at formation start
// and its nodes end on their main-area placements after the glide.
func TestPartitionStagingAndMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 30
	cfg.Flows = nil
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.BootStagger = 300 * time.Millisecond
	cfg.Partition = PartitionSpec{Nodes: 10, JoinAt: time.Second, Speed: 200}
	sc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Components()) < 2 {
		t.Fatal("staged partition is not disjoint at formation start")
	}
	// No partition node within radio reach of any main node.
	for i := cfg.N - 10; i < cfg.N; i++ {
		pi := sc.eng.PosNow(radio.NodeID(i))
		for j := 0; j < cfg.N-10; j++ {
			if pi.Dist(sc.eng.PosNow(radio.NodeID(j))) <= cfg.Radio.Range {
				t.Fatalf("staged node %d within range of main node %d", i, j)
			}
		}
	}
	before := len(sc.Components())
	sc.Bootstrap()
	sc.RunFor(sc.MergeComplete() - time.Duration(sc.Now()) + time.Second)
	// Every staged node has arrived inside the main area (sparse random
	// placements need not be fully connected, so the assertion is on the
	// glide itself, not the unit-disk graph).
	for i := cfg.N - 10; i < cfg.N; i++ {
		p := sc.eng.PosNow(radio.NodeID(i))
		if p.X > cfg.Area.W || p.Y > cfg.Area.H {
			t.Fatalf("staged node %d never arrived: still at (%g, %g)", i, p.X, p.Y)
		}
	}
	if after := len(sc.Components()); after >= before {
		t.Fatalf("merge did not reduce the component count (%d -> %d)", before, after)
	}
}
