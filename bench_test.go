package sbr6

// One benchmark per reproduced artifact (`sbrbench -list` enumerates the
// experiment ids; internal/experiments/experiments.go indexes them).
// Table/figure regeneration itself is cmd/sbrbench; these benches measure
// the hot path behind each artifact so regressions show up in -bench runs.
// Simulation-driven benchmarks go through the public facade — the same
// surface every other consumer uses.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/boot"
	"sbr6/internal/cga"
	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/scalebench"
	"sbr6/internal/wire"
)

// --- shared scenario builders ---

func benchSpec(b *testing.B, seed int64, n int, secure bool, extra ...Option) *Scenario {
	b.Helper()
	opts := []Option{
		WithSeed(seed),
		WithNodes(n),
		WithPlacement(PlaceGrid),
		WithFastTimers(),
		WithWarmup(time.Second),
		WithDuration(10 * time.Second),
		WithCooldown(2 * time.Second),
		WithFlows(Flow{From: 1, To: n - 1, Interval: 500 * time.Millisecond, Size: 64}),
	}
	if !secure {
		opts = append(opts, WithBaseline())
	}
	sc, err := NewScenario(append(opts, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	return sc
}

func benchRun(b *testing.B, sc *Scenario) *Result {
	b.Helper()
	res, err := (&Runner{}).Run(context.Background(), sc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- T1: message codec ---

func BenchmarkTable1MessageCodec(b *testing.B) {
	a := ipv6.SiteLocal(0, 1)
	m := &wire.RREQ{SIP: a, DIP: ipv6.SiteLocal(0, 2), Seq: 9,
		SrcSig: make([]byte, 64), SPK: make([]byte, 32), Srn: 7}
	for i := 0; i < 8; i++ {
		m.SRR = append(m.SRR, wire.HopAttestation{IP: a, Sig: make([]byte, 64), PK: make([]byte, 32), Rn: 7})
	}
	pkt := &wire.Packet{Src: a, Dst: ipv6.AllNodes, TTL: 64, Msg: m}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := wire.Encode(pkt)
		if _, err := wire.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- T2: crypto substrate ---

func BenchmarkTable2CryptoOps(b *testing.B) {
	for _, suite := range []identity.Suite{identity.SuiteEd25519, identity.SuiteRSA1024} {
		id, err := identity.New(suite, draw.New(1, draw.Key, 0), "")
		if err != nil {
			b.Fatal(err)
		}
		msg := wire.SigRREQSource(id.Addr, 42)
		sig := id.Sign(msg)
		b.Run(suite.String()+"/sign", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id.Sign(msg)
			}
		})
		b.Run(suite.String()+"/verify", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !id.Pub.Verify(msg, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}

// --- F1: CGA generation, verification, takeover search ---

func BenchmarkFigure1CGA(b *testing.B) {
	id, err := identity.New(identity.SuiteEd25519, draw.New(1, draw.Key, 0), "")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cga.Address(id.Pub.Bytes(), uint64(i))
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !cga.Verify(id.Addr, id.Pub.Bytes(), id.Rn) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("takeover16bit", func(b *testing.B) {
		attacker, _ := identity.New(identity.SuiteEd25519, draw.New(1, draw.Key, 1), "")
		victim := cga.TruncatedID(id.Pub.Bytes(), id.Rn, 16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rn := uint64(0)
			for cga.TruncatedID(attacker.Pub.Bytes(), rn, 16) != victim {
				rn++
			}
		}
	})
}

// --- F2: full secure bootstrap (DAD across a 9-node grid) ---

func BenchmarkFigure2DAD(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 9, true, WithFlows(), WithWarmup(0))
		sess, err := Serve(sc)
		if err != nil {
			b.Fatal(err)
		}
		if got := sess.Configured(); got != 9 {
			b.Fatalf("configured %d/9", got)
		}
	}
}

// --- F3: discovery + delivery over a chain ---

func BenchmarkFigure3RouteDiscovery(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secure bool
	}{{"secure", true}, {"baseline", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := benchSpec(b, int64(i+1), 9, mode.secure,
					WithPlacement(PlaceLine),
					WithFlows(Flow{From: 1, To: 8, Interval: time.Second, Size: 64}),
					WithDuration(5*time.Second),
				)
				if res := benchRun(b, sc); res.Delivered == 0 {
					b.Fatal("nothing delivered")
				}
			}
		})
	}
}

// --- S1: DNS impersonation under a fake-DNS relay ---

func BenchmarkSection4DNSImpersonation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 5, true,
			WithPlacement(PlaceLine),
			WithName(3, "server"),
			WithAdversaries(FakeDNS(1)),
			WithFlows(),
			WithWarmup(0),
			WithWindows(time.Second),
		)
		sess, err := Serve(sc)
		if err != nil {
			b.Fatal(err)
		}
		poisoned := false
		sess.Node(2).Resolve("server", func(a Addr, ok bool) {
			poisoned = ok && a == sess.Node(1).Addr()
		})
		if err := sess.Advance(8); err != nil {
			b.Fatal(err)
		}
		if poisoned {
			b.Fatal("secure client poisoned")
		}
	}
}

// --- S2: black hole scenario (insider, credits on) ---

func BenchmarkSection4BlackHole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 9, true,
			WithAdversaries(BlackHole(4)),
			WithDuration(15*time.Second),
		)
		if res := benchRun(b, sc); res.Sent == 0 {
			b.Fatal("no traffic")
		}
	}
}

// --- S3: forged route replies from an impersonator ---

func BenchmarkSection4ForgeReplay(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 5, true,
			WithPlacement(PlaceLine),
			WithAdversaries(Impersonate(2, 4)),
			WithFlows(Flow{From: 1, To: 4, Interval: time.Second, Size: 32}),
			WithDuration(5*time.Second),
		)
		res := benchRun(b, sc)
		if im := res.AdversaryState(2).(*attack.Impersonator); im.StolenData != 0 {
			b.Fatal("secure protocol leaked data")
		}
	}
}

// --- S4: RERR spam with flagging ---

func BenchmarkSection4RERR(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 9, true,
			WithRERRThreshold(3),
			WithAdversaries(RERRSpammer(4)),
			WithFlows(Flow{From: 1, To: 8, Interval: 400 * time.Millisecond, Size: 32}),
			WithDuration(15*time.Second),
		)
		benchRun(b, sc)
	}
}

// --- E1: clean secure run, the overhead baseline ---

func BenchmarkE1Overhead(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secure bool
	}{{"secure", true}, {"baseline", false}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := benchRun(b, benchSpec(b, int64(i+1), 16, mode.secure))
				if res.PDR < 0.9 {
					b.Fatalf("PDR = %v", res.PDR)
				}
			}
		})
	}
}

// --- E2: per-route verification cost by suite ---

func BenchmarkE2SuiteAblation(b *testing.B) {
	for _, suite := range []identity.Suite{identity.SuiteEd25519, identity.SuiteRSA1024} {
		id, err := identity.New(suite, draw.New(1, draw.Key, 0), "")
		if err != nil {
			b.Fatal(err)
		}
		msg := wire.SigHop(id.Addr, 1)
		sig := id.Sign(msg)
		b.Run(suite.String()+"/verify4hops", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for v := 0; v < 4; v++ {
					if !id.Pub.Verify(msg, sig) {
						b.Fatal("verify failed")
					}
				}
			}
		})
	}
}

// --- E3: credit convergence run ---

func BenchmarkE3CreditConvergence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc := benchSpec(b, int64(i+1), 9, true,
			WithAdversaries(BlackHole(4)),
			WithDuration(20*time.Second),
			WithWindows(5*time.Second),
		)
		if res := benchRun(b, sc); len(res.Windows) == 0 {
			b.Fatal("no windows recorded")
		}
	}
}

// --- E4: truncated-hash collision search rate ---

func BenchmarkE4Collision(b *testing.B) {
	pub := make([]byte, 32)
	draw.New(1, draw.Key, 0).Read(pub)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cga.TruncatedID(pub, uint64(i), 16)
	}
}

// --- scale: the spatial-grid medium at 250-10000 nodes ---
//
// Constant-density flood rounds (every node broadcasts, every neighbour
// set queried — the DAD/RREQ traffic shape); run with
//
//	go test -run xxx -bench ScaleNodes -benchtime 3x sbr6
//
// cmd/sbrbench -scale counts the same workload's events and frames into
// the scale ledger (.github/scale-ledger.txt).

func benchmarkScale(b *testing.B, n int) {
	nw := scalebench.BuildScaleNetwork(n, 1)
	nw.Round() // warm mobility legs, the index and the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Round()
	}
}

func BenchmarkScaleNodes250(b *testing.B)   { benchmarkScale(b, 250) }
func BenchmarkScaleNodes1000(b *testing.B)  { benchmarkScale(b, 1000) }
func BenchmarkScaleNodes4000(b *testing.B)  { benchmarkScale(b, 4000) }
func BenchmarkScaleNodes10000(b *testing.B) { benchmarkScale(b, 10000) }

// The 100k tier runs on the shard engine only, at one region and at
// scalebench.ShardRegions: byte-identical results (internal/shard's
// differential suite), wall clock the only difference that matters.
// cmd/sbrbench -scale counts the same pair into the scale ledger as the
// shard.r1 and shard.r8 cells.

func benchmarkShardScale(b *testing.B, n int) {
	for _, mode := range []struct {
		name    string
		regions int
	}{{"r1", 1}, {"r8", scalebench.ShardRegions}} {
		b.Run(mode.name, func(b *testing.B) {
			sn := scalebench.BuildShardNetwork(n, mode.regions, 1)
			sn.Round() // warm the grids, mobility legs and region partitions
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sn.Round()
			}
		})
	}
}

func BenchmarkShardScale10000(b *testing.B)  { benchmarkShardScale(b, 10000) }
func BenchmarkScaleNodes100000(b *testing.B) { benchmarkShardScale(b, 100000) }

// --- scale: the pooled zero-alloc wire path ---
//
// The flood workload with a real packet encode per broadcast (see
// scalebench.BuildWireNetwork): pooled frames and one shared delivery
// event per broadcast. scalebench's TestWireRoundAllocs fails when a warm
// 1000-node round makes more than 10 allocations.

func benchmarkWireScale(b *testing.B, n int) {
	wn := scalebench.BuildWireNetwork(n, 1)
	wn.Round() // warm pools, free lists, grid, mobility legs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wn.Round()
	}
}

func BenchmarkWireScale1000(b *testing.B) { benchmarkWireScale(b, 1000) }
func BenchmarkWireScale4000(b *testing.B) { benchmarkWireScale(b, 4000) }

// --- scale: route-record verification with and without the memo cache ---
//
// The crypto-layer companion to ScaleNodes: one node verifies the
// duplicate-heavy chain stream of an N-node formation (see
// scalebench.CryptoNetwork). The acceptance bar for the verification
// cache is >= 2x at 4000+ nodes; cmd/sbrbench -scale counts the cached
// cell's requests, primitive verifications and memo hits into the scale
// ledger.

func benchmarkVerifyScale(b *testing.B, n int) {
	for _, mode := range []struct {
		name   string
		cached bool
	}{{"nocache", false}, {"cache", true}} {
		b.Run(mode.name, func(b *testing.B) {
			nw := scalebench.BuildCryptoNetwork(n, mode.cached, 1, b.N+1)
			nw.Round() // warm: an untimed epoch grows the heap and the cache map first
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nw.Round()
			}
		})
	}
}

func BenchmarkScaleVerify1000(b *testing.B)  { benchmarkVerifyScale(b, 1000) }
func BenchmarkScaleVerify4000(b *testing.B)  { benchmarkVerifyScale(b, 4000) }
func BenchmarkScaleVerify10000(b *testing.B) { benchmarkVerifyScale(b, 10000) }

// --- scale: wall-clock-to-fully-addressed by bootstrap admission policy ---
//
// A complete secure bootstrap through the scenario harness (see
// scalebench.BuildFormation): serial admission relays each claim through
// every already-configured node, per-cell admission bootstraps disjoint
// neighborhoods concurrently. The acceptance bar for the per-cell policy
// is >= 2x at 10000 nodes; the formation conformance suite in
// internal/boot holds both policies to identical security outcomes.
// cmd/sbrbench -scale counts the same cells' events, addressed nodes and
// virtual formation time into the scale ledger.

func benchmarkFormation(b *testing.B, n int) {
	for _, mode := range []struct {
		name string
		kind boot.Kind
	}{{"serial", boot.Serial}, {"percell", boot.PerCell}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer() // identity generation and placement are not the workload
				sc := scalebench.BuildFormation(n, mode.kind, 1)
				b.StartTimer()
				if configured := sc.Bootstrap(); configured != n {
					b.Fatalf("formation incomplete: %d/%d addressed", configured, n)
				}
			}
		})
	}
}

func BenchmarkFormation1000(b *testing.B)  { benchmarkFormation(b, 1000) }
func BenchmarkFormation4000(b *testing.B)  { benchmarkFormation(b, 4000) }
func BenchmarkFormation10000(b *testing.B) { benchmarkFormation(b, 10000) }

// --- scale: one period of the post-formation audit sweep ---
//
// Every node floods one signed TTL-bounded re-advertisement per sweep
// period (see scalebench.BuildAuditNetwork). At constant density each node
// only processes the advertisements originating within its TTL-hop
// neighbourhood, so the reported ns/node-sweep must stay flat as N grows —
// the property that makes a standing audit affordable at any scale. The
// run is conflict-free, so the steady-state crypto bill is one signature
// per node per sweep and zero verifications; the benchmark asserts the
// latter outright.

func benchmarkAuditSweep(b *testing.B, n int) {
	an := scalebench.BuildAuditNetwork(n, 1)
	an.Round() // warm: neighbor tables and flood seen-sets
	if ops := an.VerifyOps(); ops != 0 {
		b.Fatalf("conflict-free sweep performed %d signature verifications, want 0", ops)
	}
	baseAdvs := an.AdvsProcessed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an.Round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-sweep")
	// The scaling law itself: advertisements processed per node per sweep
	// is bounded by the TTL-hop neighbourhood, not by N.
	b.ReportMetric(float64(an.AdvsProcessed()-baseAdvs)/float64(b.N)/float64(n), "advs/node-sweep")
	if ops := an.VerifyOps(); ops != 0 {
		b.Fatalf("steady-state sweep performed %d signature verifications, want 0", ops)
	}
}

func BenchmarkAuditSweep250(b *testing.B)  { benchmarkAuditSweep(b, 250) }
func BenchmarkAuditSweep1000(b *testing.B) { benchmarkAuditSweep(b, 1000) }
func BenchmarkAuditSweep4000(b *testing.B) { benchmarkAuditSweep(b, 4000) }

// --- the batch runner itself: parallel fan-out over seed replicates ---

func BenchmarkRunnerBatch(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "serial", 4: "workers4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := benchSpec(b, 1, 9, true)
				r := &Runner{Workers: workers}
				if _, err := r.RunBatch(context.Background(), sc, SeedRange(int64(i*4+1), 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- session reads at a window barrier: Snapshot and Query ---
//
// A 1000-node session in perfbench bootstrap's shape, built through the
// facade: uniform placement on a 125·√n m square, per-cell boot at a
// 500 ms stagger, fast timers, a DNS name on every node but the anchor, a
// 60 s audit sweep, and 10 flows at 250 ms, in 1 s windows. It is run past
// one window and read once, as perfbench reads it at every barrier; both
// benchmarks then read it again per op and never change it, so they share
// one session.

var benchSession = sync.OnceValues(func() (*Session, error) {
	n := 1000
	side := 125 * math.Sqrt(float64(n))
	opts := []Option{
		WithSeed(1),
		WithNodes(n),
		WithArea(side, side),
		WithPlacement(PlaceUniform),
		WithFastTimers(),
		WithBootPolicy(BootPerCell),
		WithBootStagger(500 * time.Millisecond),
		WithWindows(time.Second),
		WithCooldown(time.Second),
		WithAuditSweep(60 * time.Second),
	}
	flows := make([]Flow, 10)
	for i := range flows {
		flows[i] = Flow{From: 1 + i, To: 1 + i + n/2, Interval: 250 * time.Millisecond, Size: 64,
			Start: time.Duration(i) * 25 * time.Millisecond}
	}
	opts = append(opts, WithFlows(flows...))
	for i := 1; i < n; i++ {
		opts = append(opts, WithName(i, fmt.Sprintf("n%d.bench", i)))
	}
	sc, err := NewScenario(opts...)
	if err != nil {
		return nil, err
	}
	sess, err := Serve(sc)
	if err != nil {
		return nil, err
	}
	if err := sess.Advance(1); err != nil {
		return nil, err
	}
	sess.Query()
	_, err = sess.Snapshot()
	return sess, err
})

func sharedBenchSession(b *testing.B) *Session {
	b.Helper()
	sess, err := benchSession()
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

func BenchmarkSessionSnapshot(b *testing.B) {
	sess := sharedBenchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSessionQuery(b *testing.B) {
	sess := sharedBenchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sess.Query() == nil {
			b.Fatal("Query returned nil")
		}
	}
}
