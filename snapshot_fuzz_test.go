package sbr6_test

import (
	"encoding/json"
	"testing"
	"time"

	"sbr6"
)

// fuzzBudget decides whether a candidate snapshot is cheap enough to
// replay inside the fuzzer's per-exec budget. Resume already rejects
// values that would panic or hang; this gate additionally skips inputs
// that are merely expensive — huge populations, long phases, dense
// traffic — so the fuzzer spends its executions on codec logic instead
// of big legitimate simulations.
func fuzzBudget(data []byte) bool {
	var probe struct {
		Windows int `json:"windows"`
		Journal []json.RawMessage
		Config  struct {
			N           int
			Shards      int
			Warmup      time.Duration
			Cooldown    time.Duration
			BootStagger time.Duration
			WindowSize  time.Duration
			Mobility    struct {
				MaxSpeed float64
				Walk     bool
			}
			Flows []struct {
				Interval time.Duration
				Size     int
			}
			Protocol struct {
				Audit            struct{ Period time.Duration }
				Suite            int
				UnicastRetries   int
				DiscoveryRetries int
				FloodCache       int
				DAD              struct{ MaxRetries int }
			}
			Radio struct {
				UnicastRetries int
			}
			DNS struct{ Suite int }
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return true // cheap: Resume will reject it the same way
	}
	c := &probe.Config
	long := func(d time.Duration) bool { return d < 0 || d > 10*time.Second }
	switch {
	case probe.Windows > 8, len(probe.Journal) > 32,
		c.N > 64, c.Shards > 8,
		long(c.Warmup), long(c.Cooldown), long(c.BootStagger), long(c.WindowSize),
		c.Mobility.MaxSpeed != 0, c.Mobility.Walk,
		len(c.Flows) > 8,
		c.Protocol.Audit.Period != 0 && c.Protocol.Audit.Period < 10*time.Millisecond,
		c.Protocol.UnicastRetries > 16, c.Protocol.DiscoveryRetries > 16,
		c.Protocol.DAD.MaxRetries > 16, c.Radio.UnicastRetries > 16,
		// Non-default suites mean RSA keygen — ~seconds per node.
		c.Protocol.Suite != 0, c.DNS.Suite != 0,
		// An undersized dedup cache thrashes: floods get re-accepted and
		// re-broadcast each time their entry is evicted, and the storm
		// compounds across 64 nodes. 0 means the roomy default.
		c.Protocol.FloodCache > 0 && c.Protocol.FloodCache < 1024:
		return false
	}
	for _, f := range c.Flows {
		if f.Interval > 0 && f.Interval < time.Millisecond {
			return false
		}
		if f.Size > 64<<10 {
			return false
		}
	}
	return true
}

// FuzzSnapshotRoundTrip feeds arbitrary bytes to Resume. The properties:
// no panic ever; an accepted snapshot yields a working session whose own
// Snapshot resumes again (the codec is closed under round-trips).
func FuzzSnapshotRoundTrip(f *testing.F) {
	sc, err := sbr6.NewScenario(
		sbr6.WithNodes(8),
		sbr6.WithArea(400, 400),
		sbr6.WithFastTimers(),
		sbr6.WithWarmup(500*time.Millisecond),
		sbr6.WithWindows(500*time.Millisecond),
		sbr6.WithCooldown(500*time.Millisecond),
		sbr6.WithFlows(sbr6.Flow{From: 1, To: 2, Interval: 100 * time.Millisecond, Size: 32}),
	)
	if err != nil {
		f.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := sess.Inject("seed.example"); err != nil {
		f.Fatal(err)
	}
	if err := sess.Advance(2); err != nil {
		f.Fatal(err)
	}
	genuine, err := sess.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":2,"windows":0,"digest":"","config":{"N":4}}`))
	f.Add([]byte(`not a snapshot`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzBudget(data) {
			t.Skip("over the per-exec simulation budget")
		}
		resumed, err := sbr6.Resume(data)
		if err != nil {
			return // rejected cleanly
		}
		again, err := resumed.Snapshot()
		if err != nil {
			t.Fatalf("accepted snapshot cannot re-snapshot: %v", err)
		}
		if _, err := sbr6.Resume(again); err != nil {
			t.Fatalf("re-snapshot of an accepted snapshot does not resume: %v", err)
		}
	})
}
