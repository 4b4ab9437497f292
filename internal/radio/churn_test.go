package radio_test

// Mobility-churn extension of the scenario-level neighbour oracle: the
// equivalence matrix only exercises the grid under light waypoint motion,
// so the lazy re-bucketing path would be checked mostly on near-static
// topologies. These scenarios keep nodes crossing grid-cell boundaries
// mid-flood — fast waypoint sweeps, bounded random walks, and the mixed
// fleet — under the same oracle probe. A non-vacuity check asserts the
// nodes really did churn cells during the run; otherwise a future mobility
// regression could quietly turn this suite static.

import (
	"math"
	"testing"
	"time"

	"sbr6/internal/attack"
	"sbr6/internal/core"
	"sbr6/internal/geom"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
)

// churnMatrix: every entry moves nodes at speeds that cross at least one
// 250 m grid cell inside the measurement window.
func churnMatrix() map[string]func() scenario.Config {
	base := func() scenario.Config {
		cfg := scenario.DefaultConfig()
		fastTimers(&cfg)
		cfg.N = 40
		cfg.Placement = scenario.PlaceUniform
		cfg.Area.W, cfg.Area.H = 1400, 1400
		cfg.Duration = 10 * time.Second
		cfg.Radio.LossRate = 0.03
		cfg.Flows = []scenario.Flow{
			{From: 1, To: 30, Interval: 400 * time.Millisecond, Size: 64},
			{From: 9, To: 21, Interval: 600 * time.Millisecond, Size: 48},
		}
		return cfg
	}
	return map[string]func() scenario.Config{
		"churn-waypoint": func() scenario.Config {
			cfg := base()
			cfg.Mobility = scenario.MobilitySpec{
				Waypoint: true, MinSpeed: 10, MaxSpeed: 30,
			}
			return cfg
		},
		"churn-walk": func() scenario.Config {
			cfg := base()
			cfg.Mobility = scenario.MobilitySpec{
				Walk: true, MaxSpeed: 25, Epoch: 2 * time.Second,
			}
			return cfg
		},
		"churn-mixed": func() scenario.Config {
			// Waypoint sweepers and random walkers in one fleet, plus
			// hostile traffic, so re-bucketing interleaves two leg shapes
			// while adversarial control packets are in flight.
			cfg := base()
			cfg.Mobility = scenario.MobilitySpec{
				Waypoint: true, Walk: true,
				MinSpeed: 8, MaxSpeed: 25,
				Epoch: 3 * time.Second,
			}
			cfg.Behaviors = map[int]core.Behavior{
				5:  &attack.GrayHole{P: 0.5},
				17: &attack.RERRSpammer{},
			}
			return cfg
		},
	}
}

// cellsCrossed runs one config under the oracle probe and reports how many
// nodes ended the run in a different grid cell than they started it.
func cellsCrossed(t *testing.T, mk func() scenario.Config, seed int64) int {
	t.Helper()
	sc := buildSeeded(t, mk, seed)
	start := make([]geom.Point, sc.Cfg.N)
	for i := range start {
		start[i] = sc.Engine().PosNow(radio.NodeID(i))
	}
	runOracle(t, sc)
	crossed := 0
	cell := sc.Cfg.Radio.Range
	key := func(p geom.Point) [2]int32 {
		return [2]int32{int32(math.Floor(p.X / cell)), int32(math.Floor(p.Y / cell))}
	}
	for i := range start {
		if key(start[i]) != key(sc.Engine().PosNow(radio.NodeID(i))) {
			crossed++
		}
	}
	return crossed
}

func TestGridMediumEquivalentUnderChurn(t *testing.T) {
	for name, mk := range churnMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range oracleSeeds() {
				// The scenario must actually churn cells, or the oracle
				// checks nothing new over the static matrix.
				if crossed, min := cellsCrossed(t, mk, seed), 40/4; crossed < min {
					t.Errorf("seed %d: only %d/40 nodes changed grid cell (want >= %d); scenario too static",
						seed, crossed, min)
				}
			}
		})
	}
}
