package verifycache_test

// Cross-configuration differential suite: the verification cache must be a
// pure memoization. For every scenario in the matrix and every seed, a run
// with the per-node cache enabled must produce a Result byte-for-byte
// identical to the same run with the cache disabled — same deliveries,
// same route choices, same rejection counters, same crypto.verify and
// crypto.sign accounting — while the cache's own stats prove the
// primitive operation counts actually dropped. The matrix deliberately includes adversaries
// (black holes forging cached replies, RERR spammers, a fake DNS, a gray
// hole) so that "every attack detected without the cache is detected with
// it" is checked on full runs, not just unit fixtures.
//
// This mirrors internal/radio/equivalence_test.go, which plays the same
// role for the spatial-grid medium.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/scenario"
	"sbr6/internal/verifycache"
)

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

// runWith builds and runs one configuration with the verification cache
// enabled or disabled, returning the result plus the aggregated per-node
// cache stats.
func runWith(t *testing.T, mk func() scenario.Config, seed int64, cached bool) (*scenario.Result, verifycache.Stats) {
	t.Helper()
	cfg := mk()
	cfg.Seed = seed
	cfg.Protocol.DirectVerify = !cached
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (cached=%v, seed=%d): %v", cached, seed, err)
	}
	res := scenario.NewLive(sc).Run(context.Background())
	var stats verifycache.Stats
	for _, n := range sc.Nodes {
		s := n.VerifyCacheStats()
		stats.Add(s)
	}
	return res, stats
}

// detectionCounters are the per-run signals that an attack was noticed
// and neutralized; the differential suite requires them untouched by the
// cache and checks the attack scenarios actually exercise some of them
// (so the equality is not vacuous).
var detectionCounters = []string{
	"rreq.rejected", "rrep.rejected", "crep.rejected", "rerr.rejected",
	"dns.answer_rejected", "dad.arep_rejected", "dad.drep_rejected",
	"rerr.spammer_flagged", "probe.concluded", "credit.punished",
}

func TestVerifyCacheEquivalentToDirect(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2] // keep the -race CI lap affordable
	}
	var sigHits, totalLogical, totalPrimitive uint64
	var signHits, signMisses, signLogical uint64
	detections := map[string]float64{}
	for name, mk := range equivalenceMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				direct, directStats := runWith(t, mk, seed, false)
				cached, cachedStats := runWith(t, mk, seed, true)
				if directStats != (verifycache.Stats{}) {
					t.Fatalf("seed %d: cache-off run recorded cache traffic: %+v", seed, directStats)
				}
				if !reflect.DeepEqual(direct, cached) {
					t.Errorf("seed %d: cached and direct runs diverged:\ndirect: %v\ncached: %v",
						seed, direct, cached)
				}
				for _, c := range detectionCounters {
					d, g := direct.Metrics.Get(c), cached.Metrics.Get(c)
					if d != g {
						t.Errorf("seed %d: detection counter %q: direct %v, cached %v", seed, c, d, g)
					}
					detections[c] += g
				}
				sigHits += cachedStats.SigHits
				totalLogical += uint64(cached.CryptoVerify)
				totalPrimitive += cachedStats.SigMisses
				signHits += cachedStats.SignHits
				signMisses += cachedStats.SignMisses
				signLogical += uint64(cached.CryptoSign)
			}
		})
	}

	// The equality above must not be vacuous: the adversarial scenarios
	// must have produced detections, and the signature memo must have
	// actually absorbed work. Every signature verification flows through
	// the memo, so primitives-with-cache = SigMisses and
	// primitives-without-cache = the logical crypto.verify count.
	if sigHits == 0 {
		t.Fatal("signature memo recorded no hits across the whole matrix")
	}
	if totalPrimitive >= totalLogical {
		t.Fatalf("crypto op count did not drop: %d primitive vs %d logical verifications",
			totalPrimitive, totalLogical)
	}
	// Signing: crypto.sign counts every logical signature, memoized or
	// not (DAD, audit and DNS signatures stay direct), so the cache-off
	// run made signLogical primitive signatures and each memo hit is one
	// this run did not make.
	if signHits+signMisses > signLogical {
		t.Fatalf("signing memo saw %d requests, more than the %d logical signatures", signHits+signMisses, signLogical)
	}
	if primitive := signLogical - signHits; primitive >= signLogical {
		t.Fatalf("signature count did not drop: %d primitive vs %d logical signatures", primitive, signLogical)
	}
	var detected float64
	for _, c := range []string{"crep.rejected", "rerr.spammer_flagged", "dns.answer_rejected", "probe.concluded"} {
		detected += detections[c]
	}
	if detected == 0 {
		t.Fatal("attack matrix produced no detections; equality check is vacuous")
	}
}
