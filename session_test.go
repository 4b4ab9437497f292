package sbr6_test

import (
	"bytes"
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
		{"digest tampered", bytes.Replace(good, []byte(`"digest":"`), []byte(`"digest":"00`), 1), "state digest mismatch"},
		{"unknown journal op", bytes.Replace(good, []byte(`"windows":`),
			[]byte(`"journal":[{"window":0,"kind":"explode","index":1}],"windows":`), 1), `unknown journal op "explode"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := sbr6.Resume(tc.data)
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
// proves the replay is byte for byte the one that was recorded. The
// version 1 bytes the same session produced before every run moved onto
// the one-region engine cannot replay to their digest, so Resume must
// refuse them by version before replaying anything.
func TestResumeCommittedSnapshot(t *testing.T) {
	sess, err := sbr6.Resume(corpusSnapshot(t, "seed_genuine"))
	if err != nil {
		t.Fatalf("Resume of the committed snapshot failed: %v", err)
	}
	if got := sess.NodeCount(); got < 16 {
		t.Fatalf("resumed session holds %d nodes, want at least 16", got)
	}

	_, err = sbr6.Resume(corpusSnapshot(t, "seed_v1_genuine"))
	if !errors.Is(err, sbr6.ErrSnapshot) {
		t.Fatalf("Resume of a version 1 snapshot: err = %v, want ErrSnapshot", err)
	}
	if !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 snapshot rejected for the wrong reason: %v", err)
	}
}
