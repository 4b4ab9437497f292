package scenario

import (
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/geom"
)

func liveConfig(seed int64, shards int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.N = 16
	cfg.Area = geom.Rect{W: 600, H: 600} // dense enough to stay connected
	cfg.Warmup = 1 * time.Second
	cfg.WindowSize = 2 * time.Second
	cfg.Cooldown = 2 * time.Second
	cfg.Shards = shards
	cfg.Flows = []Flow{
		{From: 1, To: 2, Interval: 250 * time.Millisecond, Size: 64},
		{From: 3, To: 4, Interval: 400 * time.Millisecond, Size: 32},
	}
	return cfg
}

func startLive(t *testing.T, cfg Config) *Live {
	t.Helper()
	sc, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	lv := NewLive(sc)
	if got := lv.Start(); got < cfg.N-1 {
		t.Fatalf("bootstrap configured %d of %d", got, cfg.N)
	}
	return lv
}

func TestLiveSmoke(t *testing.T) {
	for _, shards := range []int{0, 2} {
		lv := startLive(t, liveConfig(7, shards))
		for i := 0; i < 3; i++ {
			lv.Step()
		}
		idx, err := lv.Join("joiner.example", nil)
		if err != nil {
			t.Fatalf("shards=%d Join: %v", shards, err)
		}
		for i := 0; i < 3; i++ {
			lv.Step()
		}
		if !lv.sc.Nodes[idx].Configured() {
			t.Errorf("shards=%d: joined node %d not configured after 3 windows", shards, idx)
		}
		if err := lv.Leave(idx); err != nil {
			t.Fatalf("shards=%d Leave: %v", shards, err)
		}
		lv.Step()
		res := lv.Result()
		if res.Sent == 0 || res.Delivered == 0 {
			t.Errorf("shards=%d: no traffic recorded: %+v", shards, res)
		}
		if res.PDR < 0.5 {
			t.Errorf("shards=%d: implausible session PDR %.3f", shards, res.PDR)
		}
	}
}

// TestLiveWindowStream checks that windows are emitted exactly once, in
// order, with the lag honoured and the ring dropped behind the emission
// point.
func TestLiveWindowStream(t *testing.T) {
	lv := startLive(t, liveConfig(11, 0))
	var got []WindowReport
	lv.OnWindow = func(w WindowReport) { got = append(got, w) }
	const steps = 8
	for i := 0; i < steps; i++ {
		lv.Step()
	}
	want := steps - lv.lag + 1 // windows 0..steps-lag are finalized
	if len(got) != want {
		t.Fatalf("emitted %d windows, want %d (lag %d)", len(got), want, lv.lag)
	}
	for i, w := range got {
		if w.Index != i {
			t.Errorf("window %d emitted with index %d", i, w.Index)
		}
		if w.Start != time.Duration(i)*lv.w {
			t.Errorf("window %d start %v, want %v", i, w.Start, time.Duration(i)*lv.w)
		}
		if w.Sent == 0 {
			t.Errorf("window %d recorded no sends", i)
		}
	}
	if len(lv.sc.windows) > lv.lag+1 {
		t.Errorf("window ring retains %d windows, lag is %d", len(lv.sc.windows), lv.lag)
	}
}

// TestLiveDeterministicReplay re-runs the same session (same seed, same
// barrier-stamped ops) and demands a byte-identical digest — the property
// snapshot restore is built on.
func TestLiveDeterministicReplay(t *testing.T) {
	run := func(shards int) [32]byte {
		lv := startLive(t, liveConfig(23, shards))
		lv.Step()
		lv.Step()
		if _, err := lv.Join("a.example", nil); err != nil {
			t.Fatalf("Join: %v", err)
		}
		lv.Step()
		if _, err := lv.Join("", nil); err != nil {
			t.Fatalf("Join: %v", err)
		}
		lv.Step()
		if err := lv.Leave(5); err != nil {
			t.Fatalf("Leave: %v", err)
		}
		lv.Step()
		lv.Step()
		return lv.Digest()
	}
	for _, shards := range []int{0, 2} {
		a, b := run(shards), run(shards)
		if a != b {
			t.Errorf("shards=%d: same ops, different digests\n%x\n%x", shards, a, b)
		}
	}
}

// A churner that leaves the session stops churning: its count and its
// address, which the session digest hashes, stay where they were when it
// left.
func TestEjectedChurnerStopsChurning(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := liveConfig(5, shards)
		ch := &attack.IdentityChurner{Every: time.Second}
		cfg.Behaviors = map[int]core.Behavior{5: ch}
		lv := startLive(t, cfg)
		for i := 0; i < 3; i++ {
			lv.Step()
		}
		if ch.Churns == 0 {
			t.Fatalf("shards=%d: the churner never churned while attached", shards)
		}
		if err := lv.Leave(5); err != nil {
			t.Fatalf("shards=%d Leave: %v", shards, err)
		}
		churns, addr := ch.Churns, lv.sc.Nodes[5].Addr()
		for i := 0; i < 5; i++ {
			lv.Step()
		}
		if ch.Churns != churns || lv.sc.Nodes[5].Addr() != addr {
			t.Errorf("shards=%d: departed churner went on: %d churns and %v, left with %d and %v",
				shards, ch.Churns, lv.sc.Nodes[5].Addr(), churns, addr)
		}
	}
}
