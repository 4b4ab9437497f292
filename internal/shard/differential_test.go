package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/scenario"
)

// The differential suite proves the tentpole claim: a scenario run on the
// sharded engine produces byte-for-byte identical Results at every shard
// count. Engine(1) is the baseline — the engine's serial mode shares the
// ordering rules (owner-keyed events, deterministic radio draws, barrier
// replay) with every higher count, which is exactly what makes the
// comparison byte-level rather than statistical.
//
// SBR6_SHARD_LEVELS narrows the non-baseline shard counts (comma-separated),
// so the CI race matrix can spread levels across jobs.

// fastTimers shrinks the protocol so a full bootstrap+measurement run
// stays cheap; mirrors the scenario package's own fast config.
func fastTimers(cfg *scenario.Config) {
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.Protocol.DiscoveryTimeout = 500 * time.Millisecond
	cfg.Protocol.AckTimeout = 400 * time.Millisecond
	cfg.Protocol.ResolveTimeout = 2 * time.Second
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.BootStagger = 300 * time.Millisecond
	cfg.Warmup = time.Second
	cfg.Duration = 8 * time.Second
	cfg.Cooldown = 2 * time.Second
}

// diffMatrix is the equivalence scenario matrix, in the style of the radio
// package's cross-index suite: a clean static network, a mobile network
// with churn crossing region boundaries, and an adversarial mobile network.
var diffMatrix = []struct {
	name string
	cfg  func(seed int64) scenario.Config
}{
	{"quickstart", func(seed int64) scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Seed = seed
		cfg.N = 25
		cfg.Placement = scenario.PlaceGrid
		cfg.Area = geom.Rect{W: 1000, H: 1000}
		fastTimers(&cfg)
		cfg.Flows = []scenario.Flow{
			{From: 1, To: 24, Interval: 500 * time.Millisecond, Size: 64},
			{From: 7, To: 18, Interval: 700 * time.Millisecond, Size: 48},
		}
		return cfg
	}},
	{"battlefield", func(seed int64) scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Seed = seed
		cfg.N = 25
		cfg.Area = geom.Rect{W: 700, H: 700}
		fastTimers(&cfg)
		// Mixed waypoint/walk churn drives nodes across region boundaries
		// throughout the run; windows exercise the barrier-replayed
		// bookkeeping path.
		cfg.Mobility = scenario.MobilitySpec{
			Waypoint: true, Walk: true,
			MinSpeed: 1, MaxSpeed: 8,
			Pause: time.Second, Epoch: 2 * time.Second,
		}
		cfg.WindowSize = 2 * time.Second
		cfg.Flows = []scenario.Flow{
			{From: 1, To: 23, Interval: 500 * time.Millisecond, Size: 64},
			{From: 4, To: 19, Interval: 600 * time.Millisecond, Size: 32},
		}
		return cfg
	}},
	{"adversarial", func(seed int64) scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Seed = seed
		cfg.N = 30
		cfg.Area = geom.Rect{W: 800, H: 800}
		fastTimers(&cfg)
		cfg.Mobility = scenario.MobilitySpec{
			Waypoint: true, Walk: true,
			MinSpeed: 1, MaxSpeed: 6,
			Pause: 2 * time.Second, Epoch: 3 * time.Second,
		}
		cfg.Behaviors = map[int]core.Behavior{
			14: &attack.BlackHole{ForgeCacheReplies: true},
			9:  &attack.IdentityChurner{Every: 3 * time.Second},
		}
		cfg.Flows = []scenario.Flow{
			{From: 1, To: 28, Interval: 500 * time.Millisecond, Size: 64},
			{From: 3, To: 22, Interval: 700 * time.Millisecond, Size: 48},
		}
		return cfg
	}},
}

func shardLevels(t *testing.T) []int {
	t.Helper()
	if env := os.Getenv("SBR6_SHARD_LEVELS"); env != "" {
		var levels []int
		for _, part := range strings.Split(env, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				t.Fatalf("bad SBR6_SHARD_LEVELS entry %q", part)
			}
			levels = append(levels, n)
		}
		return levels
	}
	if testing.Short() {
		return []int{2, 4}
	}
	return []int{2, 4, 8}
}

func diffSeeds() []int64 {
	if testing.Short() {
		return []int64{1, 2}
	}
	return []int64{1, 2, 3, 4, 5}
}

func runSharded(t *testing.T, cfg scenario.Config, shards int) *scenario.Result {
	t.Helper()
	cfg.Shards = shards
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build with %d shards: %v", shards, err)
	}
	return sc.Run(context.Background())
}

func TestShardDifferential(t *testing.T) {
	levels := shardLevels(t)
	for _, c := range diffMatrix {
		for _, seed := range diffSeeds() {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				base := runSharded(t, c.cfg(seed), 1)
				if base.Sent == 0 || base.Delivered == 0 {
					t.Fatalf("baseline sent=%d delivered=%d; the comparison would be vacuous",
						base.Sent, base.Delivered)
				}
				for _, n := range levels {
					got := runSharded(t, c.cfg(seed), n)
					if !reflect.DeepEqual(base, got) {
						t.Errorf("shards=%d diverged from shards=1:\n  base: %v\n  got:  %v\n  base link: %+v\n  got link:  %+v",
							n, base, got, base.Link, got.Link)
					}
				}
			})
		}
	}
}

// The engine's serial mode must still form the network and deliver — a
// degenerate engine that dropped all traffic would sail through a
// DeepEqual-only suite.
func TestShardedRunDelivers(t *testing.T) {
	res := runSharded(t, diffMatrix[0].cfg(1), 4)
	if res.Configured != 25 {
		t.Fatalf("configured %d/25", res.Configured)
	}
	if res.PDR < 0.9 {
		t.Fatalf("sharded clean-network PDR = %v (%d/%d)", res.PDR, res.Delivered, res.Sent)
	}
}

// TestBarrierPlacementInvisible pins that where a run stops changes
// nothing: a live session advanced 12 s in one RunFor equals the same
// session advanced in seeded irregular spans of 1 ns to 700 ms, at one
// region and at every shard level. Batch runs stop every 100 ms to check
// their context and a session stops at every window, so both rely on it.
func TestBarrierPlacementInvisible(t *testing.T) {
	levels := shardLevels(t)
	if !slices.Contains(levels, 1) {
		levels = append([]int{1}, levels...)
	}
	const total = 12 * time.Second
	for _, c := range diffMatrix {
		for _, seed := range diffSeeds() {
			c, seed := c, seed
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				t.Parallel()
				for _, n := range levels {
					run := func(spans *rand.Rand) (*scenario.Result, uint64) {
						cfg := c.cfg(seed)
						cfg.Shards = n
						sc, err := scenario.Build(cfg)
						if err != nil {
							t.Fatalf("build with %d shards: %v", n, err)
						}
						lv := scenario.NewLive(sc)
						lv.Start()
						for left := total; left > 0; {
							d := left
							if spans != nil {
								d = min(left, time.Duration(1+spans.Int63n(int64(700*time.Millisecond))))
							}
							sc.RunFor(d)
							left -= d
						}
						return lv.Result(), sc.Engine().Events()
					}
					whole, wholeEvents := run(nil)
					split, splitEvents := run(rand.New(rand.NewSource(seed)))
					if whole.Sent == 0 || whole.Delivered == 0 {
						t.Fatalf("shards=%d: sent=%d delivered=%d; the comparison would be vacuous",
							n, whole.Sent, whole.Delivered)
					}
					if !reflect.DeepEqual(whole, split) || wholeEvents != splitEvents {
						t.Errorf("shards=%d: irregular spans diverged from one span:\n  whole: %v (%d events)\n  split: %v (%d events)",
							n, whole, wholeEvents, split, splitEvents)
					}
				}
			})
		}
	}
}
