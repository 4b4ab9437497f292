package sbr6_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbr6"
)

// sessionOpts builds the scenario matrix for the session/snapshot tests:
// a connected 14-node network with two CBR flows, short protocol timers
// and sub-second windows so six windows run in milliseconds of wall time.
func sessionOpts(kind string, seed int64, shards int) []sbr6.Option {
	opts := []sbr6.Option{
		sbr6.WithSeed(seed),
		sbr6.WithNodes(14),
		sbr6.WithArea(600, 600),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(time.Second),
		sbr6.WithWindows(500 * time.Millisecond),
		sbr6.WithCooldown(time.Second),
		sbr6.WithFlows(
			sbr6.Flow{From: 1, To: 2, Interval: 250 * time.Millisecond, Size: 64},
			sbr6.Flow{From: 3, To: 4, Interval: 400 * time.Millisecond, Size: 32},
		),
		sbr6.WithShards(shards),
	}
	switch kind {
	case "static":
	case "mobile":
		opts = append(opts, sbr6.WithMobility(sbr6.Mobility{
			MinSpeed: 1, MaxSpeed: 3, Pause: 500 * time.Millisecond,
		}))
	case "adversarial":
		opts = append(opts, sbr6.WithAdversaries(sbr6.GrayHole(5, 0.5)))
	default:
		panic("unknown kind " + kind)
	}
	return opts
}

// driveSession advances sess from its current barrier through window
// `upto`, applying the scripted churn ops at their barriers: a join after
// window 1, ejecting flow source 3 after window 2, and ejecting the
// joined node after window 4. joined carries the injected node's index
// across a snapshot/resume split.
func driveSession(t *testing.T, sess *sbr6.Session, upto int, joined *int) []sbr6.WindowReport {
	t.Helper()
	var reports []sbr6.WindowReport
	if err := sess.Stream(func(w sbr6.WindowReport) { reports = append(reports, w) }); err != nil {
		t.Fatalf("Stream: %v", err)
	}
	for sess.Windows() < upto {
		switch sess.Windows() {
		case 1:
			idx, err := sess.Inject("joiner.example")
			if err != nil {
				t.Fatalf("Inject: %v", err)
			}
			*joined = idx
		case 2:
			if err := sess.Eject(3); err != nil {
				t.Fatalf("Eject(3): %v", err)
			}
		case 4:
			if err := sess.Eject(*joined); err != nil {
				t.Fatalf("Eject(joined=%d): %v", *joined, err)
			}
		}
		if err := sess.Advance(1); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	return reports
}

// TestStaticChurnShardInvariant runs the static session through
// driveSession's churn (one join, two ejects) at every shard count and
// requires the cumulative result, its counters and the window stream to
// be JSON-identical to the one-region run's. Joins and ejects attach and
// detach radio ports, which on a medium with no movers drops the
// receiver lists near them, so this holds those drops to the same
// answer whichever region's medium makes them.
func TestStaticChurnShardInvariant(t *testing.T) {
	const total = 6
	for _, seed := range []int64{1, 7, 42} {
		var ref []byte
		for _, shards := range []int{1, 2, 3, 4} {
			sc, err := sbr6.NewScenario(sessionOpts("static", seed, shards)...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sbr6.Serve(sc)
			if err != nil {
				t.Fatal(err)
			}
			var joined int
			reports := driveSession(t, sess, total, &joined)
			res := sess.Query()
			counters := map[string]float64{}
			for _, name := range res.MetricNames() {
				counters[name] = res.Metric(name)
			}
			got, err := json.Marshal(struct {
				Query    *sbr6.Result
				Counters map[string]float64
				Windows  []sbr6.WindowReport
			}{res, counters, reports})
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent == 0 || res.Delivered == 0 || len(counters) == 0 {
				t.Fatalf("seed %d, %d shards: degenerate session: %v", seed, shards, res)
			}
			if shards == 1 {
				ref = got
			} else if !bytes.Equal(got, ref) {
				t.Errorf("seed %d: %d shards diverge from one:\n one:  %s\n %d: %s", seed, shards, ref, shards, got)
			}
		}
	}
}

// TestSnapshotEquivalence is the correctness proof of the snapshot codec:
// for every scenario kind, seed and shard count, running N windows
// straight through must be indistinguishable — cumulative result, window
// stream and final snapshot bytes — from running k windows, snapshotting,
// resuming from the bytes and running the remaining N−k.
func TestSnapshotEquivalence(t *testing.T) {
	const total, split = 6, 3
	kinds := []string{"static", "mobile", "adversarial"}
	seeds := []int64{1, 7, 42}
	shardCounts := []int{1, 4}
	if testing.Short() {
		kinds = kinds[:2]
		seeds = seeds[:1]
	}
	for _, kind := range kinds {
		for _, seed := range seeds {
			for _, shards := range shardCounts {
				name := fmt.Sprintf("%s/seed=%d/shards=%d", kind, seed, shards)
				t.Run(name, func(t *testing.T) {
					// Reference: one uninterrupted run.
					scA, err := sbr6.NewScenario(sessionOpts(kind, seed, shards)...)
					if err != nil {
						t.Fatal(err)
					}
					full, err := sbr6.Serve(scA)
					if err != nil {
						t.Fatal(err)
					}
					var joinedA int
					repA := driveSession(t, full, total, &joinedA)
					resA := full.Query()
					snapA, err := full.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot(full): %v", err)
					}

					// Candidate: split at the snapshot barrier.
					scB, err := sbr6.NewScenario(sessionOpts(kind, seed, shards)...)
					if err != nil {
						t.Fatal(err)
					}
					first, err := sbr6.Serve(scB)
					if err != nil {
						t.Fatal(err)
					}
					var joinedB int
					driveSession(t, first, split, &joinedB)
					mid, err := first.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot(mid): %v", err)
					}
					resumed, err := sbr6.Resume(mid)
					if err != nil {
						t.Fatalf("Resume: %v", err)
					}
					if got := resumed.Windows(); got != split {
						t.Fatalf("resumed at window %d, want %d", got, split)
					}
					repB := driveSession(t, resumed, total, &joinedB)
					resB := resumed.Query()
					snapB, err := resumed.Snapshot()
					if err != nil {
						t.Fatalf("Snapshot(resumed): %v", err)
					}

					if !reflect.DeepEqual(resA, resB) {
						t.Errorf("cumulative results diverge:\n full:    %v\n resumed: %v", resA, resB)
					}
					if !bytes.Equal(snapA, snapB) {
						t.Errorf("final snapshots diverge:\n full:    %s\n resumed: %s", snapA, snapB)
					}
					// The resumed session re-emits nothing for replayed
					// windows; every window it does emit must match the
					// reference stream byte for byte, matched by index.
					byIdx := map[int]sbr6.WindowReport{}
					for _, w := range repA {
						byIdx[w.Index] = w
					}
					for _, w := range repB {
						ref, ok := byIdx[w.Index]
						if !ok {
							t.Errorf("resumed emitted window %d the full run never did", w.Index)
							continue
						}
						if !reflect.DeepEqual(ref, w) {
							t.Errorf("window %d diverges:\n full:    %+v\n resumed: %+v", w.Index, ref, w)
						}
					}
					if res := full.Query(); res.Sent == 0 {
						t.Errorf("degenerate scenario: no traffic sent")
					} else if kind != "adversarial" && res.Delivered == 0 {
						t.Errorf("degenerate scenario: nothing delivered")
					}
				})
			}
		}
	}
}

// TestRSASessionReproduces pins RSA-suite runs to their seed: two
// sessions of one seed give every node the same address, and a session
// resumes from its own snapshot. Both need keys that are a function of
// the seed, which crypto/rsa.GenerateKey cannot promise: it may read an
// extra byte from the seeded reader.
func TestRSASessionReproduces(t *testing.T) {
	sc, err := sbr6.NewScenario(
		sbr6.WithSeed(2),
		sbr6.WithNodes(8),
		sbr6.WithPlacement(sbr6.PlaceGrid),
		sbr6.WithSuite(sbr6.RSA1024),
		sbr6.WithFastTimers(),
		sbr6.WithWindows(500*time.Millisecond),
		sbr6.WithFlows(sbr6.Flow{From: 1, To: 7, Interval: 250 * time.Millisecond, Size: 32}),
	)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() *sbr6.Session {
		sess, err := sbr6.Serve(sc)
		if err != nil {
			t.Fatal(err)
		}
		advance(t, sess, 2)
		return sess
	}
	a, b := serve(), serve()
	for i := 0; i < a.NodeCount(); i++ {
		if a.Node(i).Addr() != b.Node(i).Addr() {
			t.Fatalf("node %d: one seed gave addresses %v and %v", i, a.Node(i).Addr(), b.Node(i).Addr())
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sbr6.Resume(snap)
	if err != nil {
		t.Fatalf("Resume of an RSA session's own snapshot: %v", err)
	}
	if !reflect.DeepEqual(resumed.Query(), a.Query()) {
		t.Fatalf("resumed RSA session diverged:\n resumed: %v\n served:  %v", resumed.Query(), a.Query())
	}
}

// TestSessionLifecycle covers the control surface around the equivalence
// core: barrier state accessors, journal-visible churn, stream
// subscription and the closed-session behavior.
func TestSessionLifecycle(t *testing.T) {
	sc, err := sbr6.NewScenario(sessionOpts("static", 3, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Configured() == 0 {
		t.Fatal("no node configured during bootstrap")
	}
	if got := sess.LiveNodes(); got != 14 {
		t.Fatalf("LiveNodes = %d, want 14", got)
	}
	if sess.Windows() != 0 {
		t.Fatalf("fresh session at window %d", sess.Windows())
	}
	if err := sess.Advance(-1); err == nil {
		t.Fatal("Advance(-1) accepted")
	}
	if err := sess.Advance(2); err != nil {
		t.Fatal(err)
	}
	idx, err := sess.Inject("late.example")
	if err != nil {
		t.Fatal(err)
	}
	if idx != 14 {
		t.Fatalf("joined node got index %d, want 14", idx)
	}
	if got := sess.NodeCount(); got != 15 {
		t.Fatalf("NodeCount = %d, want 15", got)
	}
	if err := sess.Eject(0); err == nil {
		t.Fatal("ejecting the DNS anchor was accepted")
	}
	if err := sess.Eject(idx); err != nil {
		t.Fatal(err)
	}
	if !sess.Node(idx).Departed() {
		t.Fatal("ejected node not marked departed")
	}
	if got := sess.LiveNodes(); got != 14 {
		t.Fatalf("LiveNodes after join+leave = %d, want 14", got)
	}
	if sess.Node(-1) != nil || sess.Node(99) != nil {
		t.Fatal("out-of-range Node() not nil")
	}
	if res := sess.Query(); res == nil || res.Windows != nil {
		t.Fatalf("Query: want non-nil result with nil Windows, got %+v", res)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal("Close not idempotent")
	}
	if err := sess.Advance(1); err == nil {
		t.Fatal("Advance accepted on a closed session")
	}
	if _, err := sess.Inject("x.example"); err == nil {
		t.Fatal("Inject accepted on a closed session")
	}
	if _, err := sess.Snapshot(); err == nil {
		t.Fatal("Snapshot accepted on a closed session")
	}
}

// TestNodeCallsAtBarrierReachQuery checks that counters bumped at a
// barrier, after Advance merged them, reach Query and Snapshot: by the
// Node calls that run protocol code, and by an unwrapped node.
func TestNodeCallsAtBarrierReachQuery(t *testing.T) {
	sc, err := sbr6.NewScenario(append(sessionOpts("static", 4, 1), sbr6.WithName(3, "hub.example"))...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Advance(2); err != nil {
		t.Fatal(err)
	}
	bumps := func(name string, call func()) {
		t.Helper()
		before := sess.Query().Metric(name)
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		call()
		if got := sess.Query().Metric(name); got != before+1 {
			t.Fatalf("Query reads %s = %v after the call, want %v", name, got, before+1)
		}
		again, err := sess.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(snap, again) {
			t.Fatalf("Snapshot did not change when %s was bumped", name)
		}
	}
	bumps("data.sent", func() { sess.Node(1).SendData(sess.Node(2).Addr(), []byte("ping")) })
	bumps("dns.resolve_started", func() { sess.Node(5).Resolve("hub.example", func(sbr6.Addr, bool) {}) })
	bumps("dns.rebind_started", func() { sess.Node(3).RebindAddress(nil) })

	// The protocol stack, unwrapped at one barrier, is driven at a later
	// one, after Advance made a fresh merge.
	stack := sess.Node(1).Unwrap()
	if err := sess.Advance(1); err != nil {
		t.Fatal(err)
	}
	bumps("data.sent", func() { stack.SendData(sess.Node(2).Addr(), []byte("pong")) })
}

// TestResumeRejectsGarbage exercises the codec's failure modes: every
// rejection must wrap ErrSnapshot and never panic.
func TestResumeRejectsGarbage(t *testing.T) {
	sc, err := sbr6.NewScenario(sessionOpts("static", 5, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Advance(1); err != nil {
		t.Fatal(err)
	}
	good, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Each case names the error it must produce, so no case can pass on an
	// earlier check than the one it targets.
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not json", []byte("not json"), "invalid character"},
		{"empty object", []byte("{}"), "unsupported version 0"},
		{"future version", []byte(`{"version":99}`), "unsupported version 99"},
		{"negative windows", bytes.Replace(good, []byte(`"windows":1`), []byte(`"windows":-1`), 1), "negative window count -1"},
		// Replaying 2^40 windows would run for days; the count is refused
		// before any replay starts.
		{"windows past a year", bytes.Replace(good, []byte(`"windows":1`), []byte(`"windows":1099511627776`), 1), "window count 1099511627776"},
		{"digest tampered", bytes.Replace(good, []byte(`"digest":"`), []byte(`"digest":"00`), 1), "state digest mismatch"},
		// WithMobility refuses a minimum speed above the maximum, and so
		// must Resume, though a static session never reads the speeds.
		{"min speed above max", bytes.Replace(good, []byte(`"MinSpeed":0,"MaxSpeed":0`), []byte(`"MinSpeed":5,"MaxSpeed":1`), 1), "mobility spec"},
		{"unknown journal op", bytes.Replace(good, []byte(`"windows":`),
			[]byte(`"journal":[{"window":0,"kind":"explode","index":1}],"windows":`), 1), `unknown journal op "explode"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A rejection must come before any long replay: a case that
			// is still replaying after the deadline fails, not hangs.
			done := make(chan error, 1)
			go func() { _, err := sbr6.Resume(tc.data); done <- err }()
			var err error
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("Resume of %s still running after 30 s", tc.name)
			}
			switch {
			case err == nil:
				t.Fatalf("Resume accepted %s", tc.name)
			case !errors.Is(err, sbr6.ErrSnapshot):
				t.Fatalf("error does not wrap ErrSnapshot: %v", err)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}

	// The untampered bytes must still resume.
	if _, err := sbr6.Resume(good); err != nil {
		t.Fatalf("Resume of a genuine snapshot failed: %v", err)
	}
}

// TestResumeFillsZeroWindow: a snapshot whose WindowSize was zeroed by
// hand gets the default a session without WithWindows gets, one second,
// so a 1 s session's snapshot resumes to the same state with it zeroed.
// Resume must fill the default before it divides by the window size to
// bound the replay.
func TestResumeFillsZeroWindow(t *testing.T) {
	sess, err := sbr6.Serve(fastSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Advance(2); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	zeroed := bytes.Replace(snap, []byte(`"WindowSize":1000000000,`), []byte(`"WindowSize":0,`), 1)
	if bytes.Equal(zeroed, snap) {
		t.Fatalf("the snapshot holds no one-second WindowSize: %.300s", snap)
	}
	resumed, err := sbr6.Resume(zeroed)
	if err != nil {
		t.Fatalf("Resume with a zero WindowSize: %v", err)
	}
	want, got := sess.Query(), resumed.Query()
	if want.Sent == 0 {
		t.Fatal("degenerate session: no traffic sent")
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed results diverge:\n session: %v\n resumed: %v", want, got)
	}
}

// TestConfigRuleAgrees holds NewScenario and Resume to one rule: a
// configuration Resume would refuse, NewScenario refuses, and a session
// of every legal edge case resumes from its own snapshot to the same
// results.
func TestConfigRuleAgrees(t *testing.T) {
	const twoYears = 2 * 365 * 24 * time.Hour
	radio := func(edit func(*sbr6.Radio)) sbr6.Option {
		r := sbr6.DefaultRadio()
		edit(&r)
		return sbr6.WithRadio(r)
	}
	refused := []struct {
		name string
		opt  sbr6.Option
	}{
		{"negative propagation delay", radio(func(r *sbr6.Radio) { r.PropDelay = -time.Microsecond })},
		{"negative broadcast jitter", radio(func(r *sbr6.Radio) { r.BroadcastJitter = -time.Millisecond })},
		{"negative bitrate", radio(func(r *sbr6.Radio) { r.BitrateBps = -1 })},
		{"half a bit per second", radio(func(r *sbr6.Radio) { r.BitrateBps = 0.5 })},
		{"sub-millisecond audit period", sbr6.WithAuditSweep(500 * time.Microsecond)},
		{"two-year duration", sbr6.WithDuration(twoYears)},
		{"two-year walk pause", sbr6.WithMobility(sbr6.Mobility{MaxSpeed: 1, Walk: true, Pause: twoYears})},
		{"1025 shards", sbr6.WithShards(1025)},
		// The option is in bounds, but the default stagger it implies,
		// the DAD timeout plus 200 ms, is not.
		{"year-long DAD timeout", sbr6.WithDADTimeout(365 * 24 * time.Hour)},
	}
	for _, tc := range refused {
		t.Run("refused/"+tc.name, func(t *testing.T) {
			if _, err := sbr6.NewScenario(tc.opt); !errors.Is(err, sbr6.ErrOption) {
				t.Fatalf("NewScenario: err = %v, want one wrapping ErrOption", err)
			}
		})
	}

	legal := []struct {
		name string
		opts []sbr6.Option
	}{
		{"1 ms audit period", []sbr6.Option{sbr6.WithAuditSweep(time.Millisecond)}},
		{"64 shards", []sbr6.Option{sbr6.WithShards(64)}},
		{"line placement", []sbr6.Option{sbr6.WithPlacement(sbr6.PlaceLine), sbr6.WithSpacing(150)}},
		{"walk mobility", []sbr6.Option{sbr6.WithMobility(sbr6.Mobility{MaxSpeed: 2, Walk: true})}},
		{"instantaneous radio", []sbr6.Option{radio(func(r *sbr6.Radio) { r.BitrateBps = 0 })}},
	}
	for _, tc := range legal {
		t.Run("resumes/"+tc.name, func(t *testing.T) {
			sc, err := sbr6.NewScenario(append([]sbr6.Option{
				sbr6.WithNodes(6),
				sbr6.WithArea(400, 400),
				sbr6.WithFastTimers(),
				sbr6.WithWarmup(200 * time.Millisecond),
				sbr6.WithWindows(500 * time.Millisecond),
				sbr6.WithCooldown(500 * time.Millisecond),
				sbr6.WithFlows(sbr6.Flow{From: 1, To: 2, Interval: 100 * time.Millisecond, Size: 32}),
			}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := sbr6.Serve(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Advance(1); err != nil {
				t.Fatal(err)
			}
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := sbr6.Resume(snap)
			if err != nil {
				t.Fatalf("Resume of the session's own snapshot: %v", err)
			}
			want, got := sess.Query(), resumed.Query()
			if want.Sent == 0 {
				t.Fatal("degenerate session: no traffic sent")
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("resumed results diverge:\n session: %v\n resumed: %v", want, got)
			}
		})
	}
}

// corpusSnapshot reads one committed fuzz corpus file: "go test fuzz v1"
// followed by one []byte literal.
func corpusSnapshot(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzSnapshotRoundTrip/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		t.Fatalf("unexpected corpus layout: %.60q", raw)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(data)
}

// The committed snapshot of a 16-node session with a join must resume:
// Resume replays it and checks the replayed state digest, so success
// proves the replay is byte for byte the one that was recorded, and the
// resumed session must snapshot to the committed bytes again. The
// version 1 bytes the same session produced before every run moved onto
// the one-region engine, and the version 2 bytes it produced before every
// draw became a hash of (seed, stream, node, counter), cannot replay to
// their digests, so Resume must refuse them by version before replaying
// anything.
func TestResumeCommittedSnapshot(t *testing.T) {
	genuine := corpusSnapshot(t, "seed_genuine")
	sess, err := sbr6.Resume(genuine)
	if err != nil {
		t.Fatalf("Resume of the committed snapshot failed: %v", err)
	}
	if got := sess.NodeCount(); got < 16 {
		t.Fatalf("resumed session holds %d nodes, want at least 16", got)
	}
	again, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, genuine) {
		t.Fatalf("the resumed session snapshots to other bytes than the committed ones:\n got %.200s\nwant %.200s", again, genuine)
	}

	_, err = sbr6.Resume(corpusSnapshot(t, "seed_v1_genuine"))
	if !errors.Is(err, sbr6.ErrSnapshot) {
		t.Fatalf("Resume of a version 1 snapshot: err = %v, want ErrSnapshot", err)
	}
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 snapshot rejected for the wrong reason: %v", err)
	}

	_, err = sbr6.Resume(corpusSnapshot(t, "seed_v2_genuine"))
	if !errors.Is(err, sbr6.ErrSnapshot) {
		t.Fatalf("Resume of a version 2 snapshot: err = %v, want ErrSnapshot", err)
	}
	if !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version 2 snapshot rejected for the wrong reason: %v", err)
	}
}
