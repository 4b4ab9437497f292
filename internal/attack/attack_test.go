package attack_test

import (
	"math"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/audit"
	"sbr6/internal/boot"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/wire"
)

// line builds a 200 m-spaced chain with node 0 as the DNS server.
func line(t *testing.T, n int, secure bool, behaviors map[int]core.Behavior) *scenario.Scenario {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.N = n
	cfg.Placement = scenario.PlaceLine
	cfg.Area = geom.Rect{W: float64(n) * 200, H: 10}
	if secure {
		cfg.Protocol = core.DefaultConfig()
	} else {
		cfg.Protocol = core.BaselineConfig()
	}
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
	cfg.Protocol.AckTimeout = 400 * time.Millisecond
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Behaviors = behaviors
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func sendMany(sc *scenario.Scenario, from, to, count int, spacing time.Duration) int {
	delivered := 0
	dst := sc.Nodes[to].Addr()
	sc.Nodes[to].OnData = func(ipv6.Addr, *wire.Data) { delivered++ }
	for i := 0; i < count; i++ {
		at := sc.Now().Add(time.Duration(i) * spacing)
		sc.Engine().ScheduleOwnedAt(radio.NodeID(from), at, func() {
			sc.Nodes[from].SendData(dst, []byte("payload"))
		})
	}
	sc.RunFor(time.Duration(count)*spacing + 8*time.Second)
	return delivered
}

func TestBlackHoleDropsOnlyDataPlane(t *testing.T) {
	bh := &attack.BlackHole{}
	sc := line(t, 5, true, map[int]core.Behavior{2: bh})
	sc.Bootstrap()
	delivered := sendMany(sc, 1, 4, 4, 500*time.Millisecond)
	if delivered != 0 {
		t.Fatalf("black hole leaked %d packets", delivered)
	}
	if bh.DroppedData == 0 {
		t.Fatal("black hole never dropped")
	}
	// Discovery still worked through it (control plane untouched); the
	// cache itself may be empty again because probing condemned the hole
	// and invalidated the route.
	if sc.Nodes[1].Metrics().Get("route.installed") == 0 {
		t.Fatal("no route was ever installed (insider should relay discovery)")
	}
}

func TestBlackHoleDropControlBlocksDiscovery(t *testing.T) {
	bh := &attack.BlackHole{DropControl: true}
	sc := line(t, 5, true, map[int]core.Behavior{2: bh})
	sc.Bootstrap()
	delivered := sendMany(sc, 1, 4, 2, 500*time.Millisecond)
	if delivered != 0 {
		t.Fatalf("delivered %d through a control-dropping hole on the only path", delivered)
	}
	if sc.Nodes[1].Metrics().Get("discovery.failed") == 0 {
		t.Fatal("discovery should fail when RREPs are dropped")
	}
}

func TestForgingBlackHoleBeliefSplit(t *testing.T) {
	for _, secure := range []bool{false, true} {
		bh := &attack.BlackHole{ForgeCacheReplies: true}
		sc := line(t, 5, secure, map[int]core.Behavior{2: bh})
		sc.Bootstrap()
		delivered := sendMany(sc, 1, 4, 3, 500*time.Millisecond)
		if bh.ForgedReplies == 0 {
			t.Fatalf("secure=%v: no forged replies", secure)
		}
		if secure {
			if sc.Nodes[1].Metrics().Get("crep.rejected") == 0 {
				t.Fatalf("secure source accepted forged CREP")
			}
		} else {
			if delivered != 0 {
				t.Fatalf("baseline should be black-holed, delivered %d", delivered)
			}
		}
	}
}

func TestGrayHoleDropsFraction(t *testing.T) {
	gh := &attack.GrayHole{P: 0.5}
	sc := line(t, 5, true, map[int]core.Behavior{2: gh})
	// Disable probing so the gray hole stays on-path for the whole run.
	sc.Nodes[2].Behavior = gh
	sc.Bootstrap()
	delivered := sendMany(sc, 1, 4, 20, 300*time.Millisecond)
	if gh.Dropped == 0 || gh.Passed == 0 {
		t.Fatalf("gray hole should both drop and pass: dropped=%d passed=%d", gh.Dropped, gh.Passed)
	}
	if delivered == 0 || delivered == 20 {
		t.Fatalf("delivered %d of 20, want partial delivery", delivered)
	}
}

func TestImpersonatorStealsOnlyFromBaseline(t *testing.T) {
	for _, secure := range []bool{false, true} {
		im := &attack.Impersonator{}
		sc := line(t, 5, secure, map[int]core.Behavior{2: im})
		im.Victim = sc.Nodes[4].Addr()
		sc.Bootstrap()
		sendMany(sc, 1, 4, 4, 500*time.Millisecond)
		if im.ForgedReplies == 0 {
			t.Fatalf("secure=%v: impersonator never forged", secure)
		}
		if secure && im.StolenData != 0 {
			t.Fatalf("secure protocol leaked %d packets to the impersonator", im.StolenData)
		}
		if !secure && im.StolenData == 0 {
			t.Fatal("baseline impersonation failed to steal")
		}
	}
}

func TestRERRSpammerSignsItsLies(t *testing.T) {
	sp := &attack.RERRSpammer{}
	sc := line(t, 5, true, map[int]core.Behavior{2: sp})
	sc.Bootstrap()
	sendMany(sc, 1, 4, 6, 400*time.Millisecond)
	if sp.Sent == 0 {
		t.Fatal("spammer sent nothing")
	}
	// Signed spam is accepted individually (it is unfalsifiable) but the
	// reporter is on the path, so rerr.accepted must be non-zero.
	if sc.Nodes[1].Metrics().Get("rerr.accepted") == 0 {
		t.Fatal("signed RERRs from an on-path relay should be accepted")
	}
}

func TestIdentityChurnerRegeneratesAddress(t *testing.T) {
	ch := &attack.IdentityChurner{Every: 2 * time.Second}
	sc := line(t, 5, true, map[int]core.Behavior{2: ch})
	sc.Bootstrap()
	before := sc.Nodes[2].Addr()
	sendMany(sc, 1, 4, 10, 400*time.Millisecond)
	if ch.Churns == 0 {
		t.Fatal("no churns")
	}
	if sc.Nodes[2].Addr() == before {
		t.Fatal("address did not change")
	}
}

func TestFakeDNSCounters(t *testing.T) {
	fake := &attack.FakeDNS{}
	sc := line(t, 5, false, map[int]core.Behavior{1: fake})
	sc.Bootstrap()
	sc.RunFor(time.Second)
	var got ipv6.Addr
	var found bool
	sc.Nodes[2].Resolve("anything", func(a ipv6.Addr, ok bool) { got, found = a, ok })
	sc.RunFor(8 * time.Second)
	if fake.Answers == 0 {
		t.Fatal("fake DNS never answered")
	}
	if !found || got != sc.Nodes[1].Addr() {
		t.Fatalf("baseline client not captured: %v %v", got, found)
	}
}

func TestReplayerReplays(t *testing.T) {
	rp := &attack.Replayer{Delay: time.Second}
	sc := line(t, 5, true, map[int]core.Behavior{2: rp})
	sc.Bootstrap()
	delivered := sendMany(sc, 1, 4, 3, 500*time.Millisecond)
	if rp.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if delivered != 3 {
		t.Fatalf("replays disturbed delivery: %d of 3", delivered)
	}
}

// TestReplayerCapturesDuplicateFrames: an honest receiver drops a frame
// that is not for it before decoding it, but an adversary's Intercept
// still sees every frame — here the same overheard RREP twice, neither
// addressed to nor routed through the replayer.
func TestReplayerCapturesDuplicateFrames(t *testing.T) {
	rp := &attack.Replayer{Delay: time.Second}
	sc := line(t, 4, true, map[int]core.Behavior{2: rp})
	sc.Bootstrap()
	ghost, ghost2 := ipv6.SiteLocal(0, 0xfeed), ipv6.SiteLocal(0, 0xbeef)
	frame := wire.Encode(&wire.Packet{Src: ghost, Dst: ghost2, TTL: 8, SrcRoute: []ipv6.Addr{ghost2},
		Msg: &wire.RREP{SIP: ghost, DIP: ghost2, Seq: 1, Sig: []byte{1}, DPK: []byte{2}, Drn: 3}})
	before := rp.Replayed
	sc.Nodes[1].RawBroadcast(frame)
	sc.Nodes[1].RawBroadcast(frame)
	sc.RunFor(3 * time.Second)
	if got := rp.Replayed - before; got != 4 {
		t.Fatalf("replayed %d frames, want 4: two captures of the duplicate, each replayed twice", got)
	}
}

// auditedUniform builds a constant-density uniform network with per-cell
// admission and the post-formation audit sweep enabled (period 2s).
func auditedUniform(t *testing.T, n int, enabled bool, behaviors map[int]core.Behavior) *scenario.Scenario {
	t.Helper()
	cfg := scenario.DefaultConfig()
	cfg.N = n
	side := 125 * math.Sqrt(float64(n))
	cfg.Area = geom.Rect{W: side, H: side}
	cfg.Placement = scenario.PlaceUniform
	cfg.Boot = boot.PerCell
	cfg.BootStagger = 500 * time.Millisecond
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Flows = nil
	if enabled {
		cfg.Protocol.Audit = audit.Config{Period: 2 * time.Second}
	}
	cfg.Behaviors = behaviors
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestCloneAttackerAuditRecovery: an attacker holding the victim's cloned
// identity squats the victim's address from a different admission cell,
// eats every objection, and still cannot keep the network ambiguous — its
// own unsuppressable audit advertisement hands the victim the evidence,
// the victim rekeys onto a fresh unique address, and the theft lands on
// the counters. Without the sweep the duplicate persists (non-vacuity).
func TestCloneAttackerAuditRecovery(t *testing.T) {
	const n, victim, attacker = 60, 1, 40
	run := func(enabled bool) (*scenario.Scenario, *attack.CloneAttacker) {
		ca := &attack.CloneAttacker{}
		sc := auditedUniform(t, n, enabled, map[int]core.Behavior{attacker: ca})
		*sc.Nodes[attacker].Identity() = *sc.Nodes[victim].Identity()
		sc.Bootstrap()
		sc.StartAudits()
		sc.RunFor(8 * time.Second)
		return sc, ca
	}

	sc, ca := run(true)
	stolen := sc.Nodes[attacker].Addr()
	if got := sc.Nodes[victim].Addr(); got == stolen {
		t.Fatalf("victim still shares the stolen address %s", got)
	}
	if !sc.Nodes[victim].Configured() {
		t.Fatal("victim did not re-form on its fresh address")
	}
	if got := sc.Nodes[victim].Metrics().Get("audit.rekeys"); got != 1 {
		t.Fatalf("victim rekeyed %v times, want 1", got)
	}
	if got := sc.Nodes[victim].Metrics().Get("audit.conflicts"); got < 1 {
		t.Fatal("the theft never surfaced on the victim's conflict counter")
	}
	if ca.AuditAdvsIgnored == 0 && ca.AuditObjsSwallowed == 0 {
		t.Fatal("the attacker was never even pressed by the sweep")
	}
	// The attacker's own claim survives — squatting an abandoned address is
	// the residual any key-compromise model concedes — but uniqueness is
	// restored across the network.
	addrs := map[string]int{}
	for _, nd := range sc.Nodes {
		addrs[nd.Addr().String()]++
	}
	for addr, count := range addrs {
		if count > 1 {
			t.Fatalf("address %s still held by %d nodes", addr, count)
		}
	}

	// Baseline: with the sweep off the victim never learns.
	base, _ := run(false)
	if base.Nodes[victim].Addr() != base.Nodes[attacker].Addr() {
		t.Fatal("baseline duplicate did not persist — the recovery claim above would be vacuous")
	}
	if got := base.Nodes[victim].Metrics().Get("audit.rekeys"); got != 0 {
		t.Fatalf("baseline rekeyed %v times with the sweep disabled", got)
	}
}
