package sbr6_test

// Tests for the public facade: eager option validation, the interactive
// Session surface, observer streaming, and the batch runner's determinism
// guarantee (same seed => byte-identical Result, serial or parallel).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbr6"
)

// fastSpec returns a small grid scenario sized for test runtimes.
func fastSpec(t *testing.T, extra ...sbr6.Option) *sbr6.Scenario {
	t.Helper()
	opts := append([]sbr6.Option{
		sbr6.WithSeed(1),
		sbr6.WithNodes(9),
		sbr6.WithPlacement(sbr6.PlaceGrid),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(time.Second),
		sbr6.WithDuration(10 * time.Second),
		sbr6.WithCooldown(2 * time.Second),
		sbr6.WithFlows(sbr6.Flow{From: 1, To: 8, Interval: 500 * time.Millisecond, Size: 64}),
	}, extra...)
	sc, err := sbr6.NewScenario(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []sbr6.Option
		want string // substring of the error
	}{
		{"one node", []sbr6.Option{sbr6.WithNodes(1)}, "at least 2"},
		{"negative area", []sbr6.Option{sbr6.WithArea(-10, 100)}, "WithArea"},
		{"infinite area", []sbr6.Option{sbr6.WithArea(math.Inf(1), 100)}, "finite"},
		{"NaN radio range", []sbr6.Option{sbr6.WithRadio(sbr6.Radio{Range: math.NaN()})}, "finite"},
		{"NaN mobility", []sbr6.Option{sbr6.WithMobility(sbr6.Mobility{MaxSpeed: math.NaN()})}, "speeds"},
		{"zero boot stagger", []sbr6.Option{sbr6.WithBootStagger(0)}, "WithBootStagger"},
		{"flow from out of range", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithFlows(sbr6.Flow{From: 9, To: 1, Interval: time.Second}),
		}, "From=9"},
		{"flow to out of range", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithFlows(sbr6.Flow{From: 1, To: -1, Interval: time.Second}),
		}, "To=-1"},
		{"flow to itself", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithFlows(sbr6.Flow{From: 2, To: 2, Interval: time.Second}),
		}, "From and To are both 2"},
		{"flow zero interval", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 2}),
		}, "interval"},
		{"flow negative start", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 2, Interval: time.Second, Start: -time.Second}),
		}, "start"},
		{"adversary on dns anchor", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithAdversaries(sbr6.BlackHole(0)),
		}, "node 0 is the DNS anchor"},
		{"adversary out of range", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithAdversaries(sbr6.BlackHole(7)),
		}, "outside"},
		{"two adversaries on one node", []sbr6.Option{
			sbr6.WithNodes(5),
			sbr6.WithAdversaries(sbr6.BlackHole(2), sbr6.RERRSpammer(2)),
		}, "assigned both"},
		{"zero-value adversary", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithAdversaries(sbr6.Adversary{}),
		}, "zero-value"},
		{"impersonator self-victim", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithAdversaries(sbr6.Impersonate(2, 2)),
		}, "victim"},
		{"name out of range", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithName(9, "host"),
		}, "references node 9"},
		{"preload out of range", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithPreload("srv", 9),
		}, "references node 9"},
		{"empty name", []sbr6.Option{sbr6.WithName(1, "")}, "empty name"},
		{"loss out of range", []sbr6.Option{sbr6.WithLoss(1.5)}, "WithLoss"},
		{"radio loss NaN", []sbr6.Option{sbr6.WithRadio(sbr6.Radio{LossRate: math.NaN()})}, "loss rate"},
		{"bad mobility speeds", []sbr6.Option{
			sbr6.WithMobility(sbr6.Mobility{MinSpeed: 5, MaxSpeed: 1}),
		}, "speeds"},
		{"zero duration", []sbr6.Option{sbr6.WithDuration(0)}, "WithDuration"},
		{"negative warmup", []sbr6.Option{sbr6.WithWarmup(-time.Second)}, "WithWarmup"},
		{"zero window", []sbr6.Option{sbr6.WithWindows(0)}, "WithWindows"},
		{"bad spacing", []sbr6.Option{sbr6.WithSpacing(0)}, "WithSpacing"},
		{"bad suite", []sbr6.Option{sbr6.WithSuite(sbr6.Suite(42))}, "suite"},
		{"bad rerr threshold", []sbr6.Option{sbr6.WithRERRThreshold(0)}, "WithRERRThreshold"},
		{"nil option", []sbr6.Option{nil}, "nil option"},
		{"nil tap", []sbr6.Option{sbr6.WithTap(nil)}, "WithTap"},
		{"zero audit period", []sbr6.Option{sbr6.WithAuditSweep(0)}, "WithAuditSweep"},
		{"negative audit period", []sbr6.Option{sbr6.WithAuditSweep(-time.Second)}, "WithAuditSweep"},
		{"zero cell fraction", []sbr6.Option{sbr6.WithBootCellFraction(0)}, "WithBootCellFraction"},
		{"oversized cell fraction", []sbr6.Option{sbr6.WithBootCellFraction(0.9)}, "WithBootCellFraction"},
		{"NaN cell fraction", []sbr6.Option{sbr6.WithBootCellFraction(math.NaN())}, "WithBootCellFraction"},
		{"clone self-victim", []sbr6.Option{
			sbr6.WithNodes(5), sbr6.WithAdversaries(sbr6.AddressClone(2, 2)),
		}, "victim"},
		{"zero shards", []sbr6.Option{sbr6.WithShards(0)}, "WithShards"},
		{"unknown placement", []sbr6.Option{sbr6.WithPlacement(sbr6.Placement(42))}, "WithPlacement"},
		{"negative pause", []sbr6.Option{sbr6.WithMobility(sbr6.Mobility{MaxSpeed: 1, Pause: -time.Second})}, "WithMobility"},
		{"negative walk epoch", []sbr6.Option{sbr6.WithMobility(sbr6.Mobility{MaxSpeed: 1, Epoch: -time.Second})}, "WithMobility"},
		{"radio loss out of range", []sbr6.Option{sbr6.WithRadio(sbr6.Radio{LossRate: 1.5})}, "WithRadio"},
		{"zero radio range", []sbr6.Option{sbr6.WithRadioRange(0)}, "WithRadioRange"},
		{"negative loss", []sbr6.Option{sbr6.WithLoss(-0.1)}, "WithLoss"},
		{"unknown boot policy", []sbr6.Option{sbr6.WithBootPolicy(sbr6.BootPolicy(42))}, "WithBootPolicy"},
		{"flow zero interval", []sbr6.Option{
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 2}),
		}, "WithFlows"},
		{"flow self loop", []sbr6.Option{
			sbr6.WithFlows(sbr6.Flow{From: 2, To: 2, Interval: time.Second}),
		}, "WithFlows"},
		{"flow negative size", []sbr6.Option{
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 2, Interval: time.Second, Size: -1}),
		}, "WithFlows"},
		{"flow negative start", []sbr6.Option{
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 2, Interval: time.Second, Start: -time.Second}),
		}, "WithFlows"},
		{"bad suite names option", []sbr6.Option{sbr6.WithSuite(sbr6.Suite(42))}, "WithSuite"},
		{"zero-value adversary", []sbr6.Option{sbr6.WithAdversaries(sbr6.Adversary{})}, "WithAdversaries"},
		{"negative duration", []sbr6.Option{sbr6.WithDuration(-time.Second)}, "WithDuration"},
		{"negative cooldown", []sbr6.Option{sbr6.WithCooldown(-time.Second)}, "WithCooldown"},
		{"negative window", []sbr6.Option{sbr6.WithWindows(-time.Second)}, "WithWindows"},
		{"negative name index", []sbr6.Option{sbr6.WithName(-1, "a.example")}, "WithName"},
		{"empty name", []sbr6.Option{sbr6.WithName(3, "")}, "WithName"},
		{"empty preload name", []sbr6.Option{sbr6.WithPreload("", 3)}, "WithPreload"},
		{"negative preload index", []sbr6.Option{sbr6.WithPreload("a.example", -1)}, "WithPreload"},
		{"zero DAD timeout", []sbr6.Option{sbr6.WithDADTimeout(0)}, "WithDADTimeout"},
		{"negative DNS commit delay", []sbr6.Option{sbr6.WithDNSCommitDelay(-time.Second)}, "WithDNSCommitDelay"},
		{"negative shards", []sbr6.Option{sbr6.WithShards(-2)}, "WithShards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sbr6.NewScenario(tc.opts...)
			if err == nil {
				t.Fatalf("invalid options accepted")
			}
			if !errors.Is(err, sbr6.ErrOption) {
				t.Fatalf("error does not wrap ErrOption: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestValidScenarioDefaults(t *testing.T) {
	sc, err := sbr6.NewScenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Nodes() != 25 || sc.Seed() != 1 {
		t.Fatalf("defaults: nodes=%d seed=%d", sc.Nodes(), sc.Seed())
	}
}

func TestNetworkInteractive(t *testing.T) {
	sc, err := sbr6.NewScenario(
		sbr6.WithNodes(5),
		sbr6.WithPlacement(sbr6.PlaceLine),
		sbr6.WithFastTimers(),
		sbr6.WithName(4, "sensor-hub"),
		sbr6.WithWarmup(time.Second),
		sbr6.WithWindows(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Configured(); got != 5 {
		t.Fatalf("configured %d/5", got)
	}

	var hub sbr6.Addr
	var found bool
	sess.Node(1).Resolve("sensor-hub", func(a sbr6.Addr, ok bool) { hub, found = a, ok })
	advance(t, sess, 5)
	if !found || hub != sess.Node(4).Addr() {
		t.Fatalf("resolve failed: found=%v hub=%s", found, hub)
	}

	received := 0
	sess.Node(4).OnData(func(src sbr6.Addr, payload []byte) { received++ })
	sess.Node(1).SendData(hub, []byte("ping"))
	advance(t, sess, 5)
	if received != 1 {
		t.Fatalf("received %d packets, want 1", received)
	}
	if relays, ok := sess.Node(1).Route(hub); !ok || relays == 0 {
		t.Fatalf("route to hub: relays=%d ok=%v", relays, ok)
	}
	if sess.Query().Metric("crypto.verify") == 0 {
		t.Fatal("no verifications counted on a secure run")
	}
}

// advance runs sess for the given number of windows.
func advance(t *testing.T, sess *sbr6.Session, windows int) {
	t.Helper()
	if err := sess.Advance(windows); err != nil {
		t.Fatalf("Advance(%d): %v", windows, err)
	}
}

// TestShardedFacade drives the sharded core through the public surface:
// an interactive Session works unchanged on two regions, and a sharded
// run is byte-identical to the engine's serial baseline (the internal/shard
// differential suite proves this across a full scenario matrix; here we
// only pin the facade plumbing).
func TestShardedFacade(t *testing.T) {
	sess, err := sbr6.Serve(fastSpec(t, sbr6.WithShards(2), sbr6.WithFlows(), sbr6.WithWarmup(0),
		sbr6.WithWindows(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Configured(); got != 9 {
		t.Fatalf("configured %d/9", got)
	}
	received := 0
	sess.Node(8).OnData(func(src sbr6.Addr, payload []byte) { received++ })
	sess.Node(1).SendData(sess.Node(8).Addr(), []byte("ping"))
	advance(t, sess, 5)
	if received != 1 {
		t.Fatalf("received %d packets, want 1", received)
	}

	runner := &sbr6.Runner{}
	a, err := runner.Run(context.Background(), fastSpec(t, sbr6.WithShards(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runner.Run(context.Background(), fastSpec(t, sbr6.WithShards(2)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sharded run diverged from engine serial baseline:\nserial:  %v\nsharded: %v", a, b)
	}
	if a.Delivered == 0 {
		t.Fatal("baseline delivered nothing; the comparison is vacuous")
	}
}

// defaultEngineSpec is one scenario shape of the default-engine check:
// a 14-node network with two flows and 1 s windows, static, mobile under
// 5% loss, or with an insider gray hole.
func defaultEngineSpec(t *testing.T, kind string, extra ...sbr6.Option) *sbr6.Scenario {
	t.Helper()
	opts := []sbr6.Option{
		sbr6.WithSeed(3),
		sbr6.WithNodes(14),
		sbr6.WithArea(600, 600),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(time.Second),
		sbr6.WithDuration(4 * time.Second),
		sbr6.WithWindows(time.Second),
		sbr6.WithCooldown(time.Second),
		sbr6.WithFlows(
			sbr6.Flow{From: 1, To: 2, Interval: 250 * time.Millisecond, Size: 64},
			sbr6.Flow{From: 3, To: 4, Interval: 400 * time.Millisecond, Size: 32},
		),
	}
	switch kind {
	case "static":
	case "mobile-lossy":
		opts = append(opts, sbr6.WithLoss(0.05), sbr6.WithMobility(sbr6.Mobility{
			MinSpeed: 1, MaxSpeed: 5, Pause: 500 * time.Millisecond,
		}))
	case "adversarial":
		opts = append(opts, sbr6.WithAdversaries(sbr6.GrayHole(5, 0.5)))
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	sc, err := sbr6.NewScenario(append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestDefaultIsOneRegionEngine pins the single simulation substrate: a
// scenario that never sets WithShards runs on the engine at one region,
// so its Result (windows included) and its session snapshot bytes equal
// those of the same scenario with WithShards(1).
func TestDefaultIsOneRegionEngine(t *testing.T) {
	for _, kind := range []string{"static", "mobile-lossy", "adversarial"} {
		t.Run(kind, func(t *testing.T) {
			runner := &sbr6.Runner{Workers: 1}
			def, err := runner.Run(context.Background(), defaultEngineSpec(t, kind))
			if err != nil {
				t.Fatal(err)
			}
			one, err := runner.Run(context.Background(), defaultEngineSpec(t, kind, sbr6.WithShards(1)))
			if err != nil {
				t.Fatal(err)
			}
			if def.Delivered == 0 || len(def.Windows) == 0 {
				t.Fatalf("default run delivered %d packets over %d windows; the comparison is vacuous",
					def.Delivered, len(def.Windows))
			}
			if !reflect.DeepEqual(def, one) {
				t.Fatalf("default run diverged from WithShards(1):\ndefault: %v\none:     %v", def, one)
			}

			snapshot := func(spec *sbr6.Scenario) []byte {
				t.Helper()
				sess, err := sbr6.Serve(spec)
				if err != nil {
					t.Fatal(err)
				}
				var joined int
				driveSession(t, sess, 5, &joined)
				snap, err := sess.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				return snap
			}
			if a, b := snapshot(defaultEngineSpec(t, kind)), snapshot(defaultEngineSpec(t, kind, sbr6.WithShards(1))); !bytes.Equal(a, b) {
				t.Fatalf("default session snapshot differs from WithShards(1):\ndefault: %.300s\none:     %.300s", a, b)
			}
		})
	}
}

// TestRunnerIsSessionRunToItsEnd pins the one run path: a Runner
// replicate equals the same scenario served, streamed and advanced
// through ⌈Duration/W⌉ measured and ⌈Cooldown/W⌉ cooldown windows, then
// queried. The two Results are JSON-identical once the streamed windows
// are set as the session Result's Windows, and their sample series and
// adversary state agree, across the scenario kinds and shard counts of
// the default-engine check, with an audit sweep on.
func TestRunnerIsSessionRunToItsEnd(t *testing.T) {
	const windows = 4 + 1 // defaultEngineSpec: 4 s measured, 1 s cooldown, 1 s windows
	for _, kind := range []string{"static", "mobile-lossy", "adversarial"} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				spec := defaultEngineSpec(t, kind, sbr6.WithShards(shards), sbr6.WithAuditSweep(1500*time.Millisecond))
				run, err := (&sbr6.Runner{}).Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				sess, err := sbr6.Serve(spec)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []sbr6.WindowReport
				if err := sess.Stream(func(w sbr6.WindowReport) { streamed = append(streamed, w) }); err != nil {
					t.Fatal(err)
				}
				advance(t, sess, windows)
				query := sess.Query()
				query.Windows = streamed

				a, err := json.Marshal(run)
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(query)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("Runner result differs from the session run to its end:\nrunner:  %s\nsession: %s", a, b)
				}
				if run.Delivered == 0 || len(run.Windows) != 4 || run.Metric("audit.adv_sent") == 0 {
					t.Fatalf("vacuous comparison: %d delivered, %d windows, %v audit advertisements",
						run.Delivered, len(run.Windows), run.Metric("audit.adv_sent"))
				}
				if m := run.MetricMean("dad.latency_s"); !(m > 0) || m != query.MetricMean("dad.latency_s") {
					t.Fatalf("dad.latency_s mean: runner %v, session %v", m, query.MetricMean("dad.latency_s"))
				}
				for i := 0; i < spec.Nodes(); i++ {
					if got, want := run.AdversaryState(i), any(sess.Node(i).Unwrap().Behavior); !reflect.DeepEqual(got, want) {
						t.Fatalf("node %d: runner adversary state %+v, session %+v", i, got, want)
					}
				}
			})
		}
	}
}

// TestQuerySamplesSurviveWindows reads a sample series before and after
// windows drain the nodes' samples into the session aggregates: both
// reads must see the same series.
func TestQuerySamplesSurviveWindows(t *testing.T) {
	sess, err := sbr6.Serve(fastSpec(t, sbr6.WithWindows(time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Query()
	advance(t, sess, 2)
	after := sess.Query()
	mean, p50 := before.MetricMean("dad.latency_s"), before.MetricQuantile("dad.latency_s", 0.5)
	if !(mean > 0) || !(p50 > 0) {
		t.Fatalf("bootstrap left no DAD latency: mean %v, p50 %v", mean, p50)
	}
	if got := after.MetricMean("dad.latency_s"); got != mean {
		t.Fatalf("dad.latency_s mean read %v before the windows and %v after", mean, got)
	}
	if got := after.MetricQuantile("dad.latency_s", 0.5); got != p50 {
		t.Fatalf("dad.latency_s p50 read %v before the windows and %v after", p50, got)
	}
}

// TestRunBatchDeterminism is the facade's core guarantee: the same seed
// yields an identical Result whether run serially or through the parallel
// worker pool, adversaries included. The second scenario sends forged
// cached-route replies and signed RERR lies through every node's
// verification cache; run under -race in CI, it proves the per-replicate
// caches share no state across the worker pool.
func TestRunBatchDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		opts []sbr6.Option
	}{
		{"blackhole", []sbr6.Option{
			sbr6.WithWindows(5 * time.Second),
			sbr6.WithAdversaries(sbr6.BlackHole(4)),
		}},
		// Adversaries sit off the 1->8 diagonal so some traffic still lands
		// and the latency stats have samples to compare.
		{"forging-blackhole+spammer", []sbr6.Option{
			sbr6.WithAdversaries(sbr6.ForgingBlackHole(2), sbr6.RERRSpammer(6)),
		}},
	}
	for _, tc := range scenarios {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *sbr6.Scenario { return fastSpec(t, tc.opts...) }
			seeds := sbr6.SeedRange(1, 4)

			serial := &sbr6.Runner{Workers: 1}
			sb, err := serial.RunBatch(context.Background(), mk(), seeds)
			if err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			parallel := &sbr6.Runner{Workers: 4}
			pb, err := parallel.RunBatch(ctx, mk(), seeds)
			if err != nil {
				t.Fatal(err)
			}

			if len(sb.Results) != len(pb.Results) {
				t.Fatalf("result counts differ: %d vs %d", len(sb.Results), len(pb.Results))
			}
			for i := range sb.Results {
				if !reflect.DeepEqual(sb.Results[i], pb.Results[i]) {
					t.Fatalf("seed %d: serial and parallel results differ:\nserial:   %v\nparallel: %v",
						sb.Seeds[i], sb.Results[i], pb.Results[i])
				}
			}

			// A direct run of the same seed agrees too.
			direct, err := (&sbr6.Runner{}).Run(context.Background(), mk())
			if err != nil {
				t.Fatal(err)
			}
			if direct.Seed != seeds[0] || !reflect.DeepEqual(direct, sb.Results[0]) {
				t.Fatalf("direct run differs from batch:\ndirect: %v\nbatch:  %v", direct, sb.Results[0])
			}

			if sb.PDR.N != len(seeds) || sb.PDR.Mean <= 0 || sb.PDR.Mean > 1 {
				t.Fatalf("suspicious PDR stat: %+v", sb.PDR)
			}
			if sb.PDR.Min > sb.PDR.Mean || sb.PDR.Max < sb.PDR.Mean {
				t.Fatalf("stat bounds wrong: %+v", sb.PDR)
			}
		})
	}
}

// TestRunBatchDeterminismBootPolicy extends the determinism guarantee to
// the bootstrap admission policy: a parallel per-cell batch must match a
// serial per-cell batch seed for seed (run under -race in CI, proving the
// schedule computation shares no state across the worker pool), and the
// per-cell policy must form the same fully-addressed network the serial
// one does.
func TestRunBatchDeterminismBootPolicy(t *testing.T) {
	mk := func(p sbr6.BootPolicy) *sbr6.Scenario {
		return fastSpec(t,
			sbr6.WithBootPolicy(p),
			sbr6.WithAdversaries(sbr6.BlackHole(4)),
		)
	}
	seeds := sbr6.SeedRange(1, 4)

	serial := &sbr6.Runner{Workers: 1}
	sb, err := serial.RunBatch(context.Background(), mk(sbr6.BootPerCell), seeds)
	if err != nil {
		t.Fatal(err)
	}
	parallel := &sbr6.Runner{Workers: 4}
	pb, err := parallel.RunBatch(context.Background(), mk(sbr6.BootPerCell), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sb.Results {
		if !reflect.DeepEqual(sb.Results[i], pb.Results[i]) {
			t.Fatalf("seed %d: serial and parallel per-cell results differ", sb.Seeds[i])
		}
	}
	// Outcome equivalence with the serial policy: everyone addressed.
	old, err := serial.RunBatch(context.Background(), mk(sbr6.BootSerial), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sb.Results {
		if sb.Results[i].Configured != 9 || old.Results[i].Configured != 9 {
			t.Fatalf("seed %d: formation incomplete: percell %d/9, serial %d/9",
				sb.Seeds[i], sb.Results[i].Configured, old.Results[i].Configured)
		}
	}
}

func TestRunnerObserverStreams(t *testing.T) {
	sc := fastSpec(t, sbr6.WithWindows(2*time.Second))
	var started, finished int
	var windows []sbr6.WindowReport
	r := &sbr6.Runner{Workers: 2, Observer: sbr6.ObserverFuncs{
		OnRunStarted: func(seed int64) { started++ },
		OnWindow: func(seed int64, w sbr6.WindowReport) {
			if seed == 1 {
				windows = append(windows, w)
			}
		},
		OnRunFinished: func(seed int64, r *sbr6.Result) { finished++ },
	}}
	batch, err := r.RunBatch(context.Background(), sc, sbr6.Seeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if started != 2 || finished != 2 {
		t.Fatalf("observer saw %d starts, %d finishes; want 2/2", started, finished)
	}
	if len(windows) != 5 { // 10 s duration / 2 s windows
		t.Fatalf("streamed %d windows, want 5", len(windows))
	}
	for i, w := range windows {
		if w.Start != time.Duration(i)*2*time.Second {
			t.Fatalf("window %d starts at %v", i, w.Start)
		}
	}
	// The streamed windows match the final result's recorded windows.
	res := batch.Results[0]
	for i, w := range res.Windows {
		if !reflect.DeepEqual(windows[i], w) {
			t.Fatalf("window %d streamed %+v but recorded %+v", i, windows[i], w)
		}
	}
	if batch.Results[0].Seed != 1 || batch.Results[1].Seed != 2 {
		t.Fatalf("batch results not in seed order: %v", batch.Seeds)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	sc := fastSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &sbr6.Runner{Workers: 2}
	batch, err := r.RunBatch(ctx, sc, sbr6.SeedRange(1, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if batch.Completed() != 0 {
		t.Fatalf("%d replicates completed under a cancelled context", batch.Completed())
	}
}

// TestRunnerCancelsMidRun stops a replicate that is already running: the
// observer cancels at the first streamed window, and the run must end
// there, with one window streamed, no result and no RunFinished.
func TestRunnerCancelsMidRun(t *testing.T) {
	sc := fastSpec(t, sbr6.WithWindows(time.Second), sbr6.WithDuration(60*time.Second))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	windows, finished := 0, 0
	r := &sbr6.Runner{Observer: sbr6.ObserverFuncs{
		OnWindow: func(int64, sbr6.WindowReport) {
			windows++
			cancel()
		},
		OnRunFinished: func(int64, *sbr6.Result) { finished++ },
	}}
	res, err := r.Run(ctx, sc)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want nil, context.Canceled", res, err)
	}
	if windows != 1 || finished != 0 {
		t.Fatalf("observer saw %d windows and %d finishes; want 1 and 0", windows, finished)
	}
}

// TestRunnerCancelsDuringBootstrap stops a replicate inside its
// bootstrap: a tap cancels ctx on the first DAD reception, and the run
// must end within the 100 ms of virtual time it advances between two
// checks of ctx, with no result and no RunFinished.
func TestRunnerCancelsDuringBootstrap(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelledAt, last := time.Duration(-1), time.Duration(0)
	sc := fastSpec(t, sbr6.WithTap(func(ev sbr6.TapEvent) {
		last = ev.At
		if cancelledAt < 0 && strings.HasPrefix(ev.Desc, "AREQ") {
			cancelledAt = ev.At
			cancel()
		}
	}))
	finished := 0
	r := &sbr6.Runner{Observer: sbr6.ObserverFuncs{
		OnRunFinished: func(int64, *sbr6.Result) { finished++ },
	}}
	res, err := r.Run(ctx, sc)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, %v; want nil, context.Canceled", res, err)
	}
	if finished != 0 {
		t.Fatalf("observer saw %d finishes, want 0", finished)
	}
	if cancelledAt < 0 {
		t.Fatal("the tap saw no DAD reception")
	}
	if last-cancelledAt > 100*time.Millisecond {
		t.Fatalf("run went on from %v to %v after ctx was cancelled", cancelledAt, last)
	}
}

// TestAdversaryStateIsolatedPerRun checks that every run gets fresh
// adversary state and that a Result reports it at adversary nodes only:
// the tap on honest nodes is not an adversary.
func TestAdversaryStateIsolatedPerRun(t *testing.T) {
	sc := fastSpec(t,
		sbr6.WithTap(func(sbr6.TapEvent) {}),
		sbr6.WithAdversaries(sbr6.ForgingBlackHole(4)),
	)
	runner := &sbr6.Runner{}
	r1, err := runner.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runner.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if r1.AdversaryState(4) == nil || r1.AdversaryState(4) == r2.AdversaryState(4) {
		t.Fatal("adversary state shared between runs")
	}
	if st := r1.AdversaryState(3); st != nil {
		t.Fatalf("honest node reports adversary state %T", st)
	}
}

// TestTapSerializedAcrossBatch shares one tap callback between parallel
// replicates; under -race this fails if tap delivery is not serialized.
func TestTapSerializedAcrossBatch(t *testing.T) {
	events := 0
	sc := fastSpec(t, sbr6.WithTap(func(sbr6.TapEvent) { events++ }))
	if _, err := (&sbr6.Runner{Workers: 4}).RunBatch(context.Background(), sc, sbr6.SeedRange(1, 4)); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("tap saw no receptions")
	}
}

func TestRunBatchNoSeeds(t *testing.T) {
	sc := fastSpec(t)
	if _, err := (&sbr6.Runner{}).RunBatch(context.Background(), sc, nil); !errors.Is(err, sbr6.ErrOption) {
		t.Fatalf("err = %v", err)
	}
}

// TestAddressCloneAuditRecoveryFacade drives the audit sweep end to end
// through the public surface: an AddressClone adversary squats node 1's
// address from across the grid; WithAuditSweep surfaces the conflict and
// the victim recovers onto a fresh unique address. WithSecure is applied
// AFTER WithAuditSweep to pin that a protocol-variant switch preserves the
// sweep configuration. The session runs as long as a batch run of the
// same declaration: the 5 s warmup, then two 1 s windows for its
// duration and cooldown.
func TestAddressCloneAuditRecoveryFacade(t *testing.T) {
	sc, err := sbr6.NewScenario(
		sbr6.WithSeed(3),
		sbr6.WithNodes(36),
		sbr6.WithPlacement(sbr6.PlaceGrid),
		sbr6.WithBootPolicy(sbr6.BootPerCell),
		sbr6.WithFastTimers(),
		sbr6.WithAuditSweep(time.Second),
		sbr6.WithSecure(),
		sbr6.WithBootCellFraction(0.5),
		sbr6.WithAdversaries(sbr6.AddressClone(20, 1)),
		sbr6.WithWarmup(5*time.Second),
		sbr6.WithDuration(time.Second),
		sbr6.WithCooldown(time.Second),
		sbr6.WithWindows(time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	advance(t, sess, 2)

	if sess.Node(1).Addr() == sess.Node(20).Addr() {
		t.Fatal("victim still shares the cloned address after the sweep")
	}
	if !sess.Node(1).Configured() {
		t.Fatal("victim did not re-form")
	}
	res := sess.Query()
	if got := res.Metric("audit.rekeys"); got != 1 {
		t.Fatalf("audit.rekeys = %v, want 1 (the victim alone)", got)
	}
	if res.Metric("audit.adv_sent") == 0 {
		t.Fatal("no advertisements sent — WithSecure wiped the sweep configuration")
	}
	if res.Metric("audit.conflicts") == 0 {
		t.Fatal("the conflict never surfaced")
	}
}
