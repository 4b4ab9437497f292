package radio_test

// Scenario-level neighbour oracle. For every scenario in the matrix and
// every seed, a probe steps through the whole run — bootstrap, warmup,
// traffic, cooldown — and at each step compares AppendNeighbors(i) for
// every node against the list built from InRange, an exact pairwise
// distance check that never consults the spatial grid. The matrix covers
// static and mobile topologies, lossy links, adversaries and windowed
// measurement, so the grid is checked under the traffic and motion the
// protocol actually generates. The test names keep their historical
// "naive" wording: the oracle is the naive all-pairs computation.
//
// The same matrix drives the pooled-frame and receive-path differential
// suites in this package.

import (
	"context"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
)

// fastTimers shrinks the protocol timers the way the benchmark harness
// does, so the matrix stays quick without losing any code path.
func fastTimers(cfg *scenario.Config) {
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
	cfg.Protocol.AckTimeout = 400 * time.Millisecond
	cfg.Protocol.ResolveTimeout = 2 * time.Second
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.BootStagger = 300 * time.Millisecond
	cfg.Warmup = time.Second
	cfg.Cooldown = 2 * time.Second
}

// equivalenceMatrix mirrors the repository's example scenarios: a clean
// quickstart network, the battlefield insider attack, and an adversarial
// mobile network under loss.
func equivalenceMatrix() map[string]func() scenario.Config {
	return map[string]func() scenario.Config{
		"quickstart": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 25
			cfg.Placement = scenario.PlaceGrid
			cfg.Duration = 8 * time.Second
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64},
				{From: 7, To: 18, Interval: 700 * time.Millisecond, Size: 48},
			}
			return cfg
		},
		"battlefield": func() scenario.Config {
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 25
			cfg.Placement = scenario.PlaceGrid
			cfg.Duration = 10 * time.Second
			cfg.Radio.LossRate = 0.02
			cfg.WindowSize = 2 * time.Second
			cfg.Behaviors = map[int]core.Behavior{
				11: &attack.BlackHole{},
				12: &attack.BlackHole{ForgeCacheReplies: true},
				13: &attack.RERRSpammer{},
			}
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64},
				{From: 4, To: 20, Interval: 500 * time.Millisecond, Size: 64},
				{From: 21, To: 3, Interval: 500 * time.Millisecond, Size: 64},
			}
			return cfg
		},
		"adversarial": func() scenario.Config {
			// Mobile and lossy: waypoint motion exercises the grid's lazy
			// re-bucketing and staleness slop, the fake DNS relay and gray
			// hole add hostile control traffic.
			cfg := scenario.DefaultConfig()
			fastTimers(&cfg)
			cfg.N = 30
			cfg.Placement = scenario.PlaceUniform
			cfg.Area.W, cfg.Area.H = 1200, 1200
			cfg.Duration = 10 * time.Second
			cfg.Radio.LossRate = 0.05
			cfg.Mobility = scenario.MobilitySpec{
				Waypoint: true, MinSpeed: 1, MaxSpeed: 10, Pause: time.Second,
			}
			cfg.Names = map[int]string{5: "server"}
			cfg.Behaviors = map[int]core.Behavior{
				2: &attack.FakeDNS{},
				9: &attack.GrayHole{P: 0.5},
			}
			cfg.Flows = []scenario.Flow{
				{From: 1, To: 14, Interval: 500 * time.Millisecond, Size: 64},
				{From: 8, To: 22, Interval: 600 * time.Millisecond, Size: 64},
			}
			return cfg
		},
	}
}

// oracleStep is how often the oracle probe checks the whole network.
const oracleStep = 100 * time.Millisecond

// oracleSeeds are the seeds every oracle scenario runs under.
func oracleSeeds() []int64 {
	if testing.Short() {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3, 4, 5}
}

// buildSeeded builds one configuration of the matrix under the seed.
func buildSeeded(t *testing.T, mk func() scenario.Config, seed int64) *scenario.Scenario {
	t.Helper()
	cfg := mk()
	cfg.Seed = seed
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (seed=%d): %v", seed, err)
	}
	return sc
}

// onlyMedium returns the medium of a one-region scenario, which holds
// every node's port.
func onlyMedium(t *testing.T, sc *scenario.Scenario) *radio.Medium {
	t.Helper()
	if r := sc.Engine().Regions(); r != 1 {
		t.Fatalf("scenario runs on %d regions; the oracle needs the one medium that holds every port", r)
	}
	return sc.Engine().NodeMedium(0)
}

// runOracle runs a built scenario while a probe, every oracleStep of
// virtual time, holds AppendNeighbors(i) of every node to the list
// InRange builds. The probe runs on the medium's own simulator, so it
// samples the grid at exactly the probe instant. Probing reads positions
// and the index only, so the run itself is unchanged.
func runOracle(t *testing.T, sc *scenario.Scenario) {
	t.Helper()
	m, n := onlyMedium(t, sc), sc.Cfg.N
	s := sc.Engine().NodeSim(0)
	probes := 0
	var probe func()
	probe = func() {
		probes++
		for i := 0; i < n; i++ {
			a := radio.NodeID(i)
			var want []radio.NodeID
			for j := 0; j < n; j++ {
				if b := radio.NodeID(j); b != a && m.InRange(a, b) {
					want = append(want, b)
				}
			}
			if got := m.AppendNeighbors(a, nil); !sameIDs(got, want) {
				t.Fatalf("seed %d at %v: AppendNeighbors(%d) = %v, InRange oracle %v", sc.Cfg.Seed, s.Now(), i, got, want)
			}
		}
		s.After(oracleStep, probe)
	}
	s.After(oracleStep, probe)
	scenario.NewLive(sc).Run(context.Background())
	if min := 100; probes < min {
		t.Fatalf("seed %d: only %d oracle probes ran (want >= %d)", sc.Cfg.Seed, probes, min)
	}
}

func TestGridMediumEquivalentToNaive(t *testing.T) {
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range oracleSeeds() {
				runOracle(t, buildSeeded(t, mk, seed))
			}
		})
	}
}
