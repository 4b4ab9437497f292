package boot_test

// Formation conformance suite: the proof obligation for the admission
// policies. Whatever schedule a policy emits, network formation must end in
// the same place — and detection of conflicting claims must not depend on
// the policy:
//
//   - every node ends fully addressed,
//   - addresses are unique across the network,
//   - every seeded conflict (a duplicate CGA claim from a cloned identity,
//     a duplicate domain-name registration against a pre-provisioned
//     binding) is detected, and the detection counters are identical
//     across policies,
//   - each policy is byte-for-byte deterministic per seed: two runs of the
//     same configuration agree on every counter of every node.
//
// This is the same bar the cross-medium suite (internal/radio) and the
// verify-cache differential suite (internal/verifycache) set for earlier
// scaling PRs, adapted to a change that legitimately reorders the
// simulation: equivalence here is outcome-level, not byte-level, between
// policies — and byte-level between runs of one policy.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/boot"
	"sbr6/internal/geom"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/trace"
)

// detectionCounters are the formation-phase signals that a conflicting
// claim was noticed and neutralized. They must not depend on the admission
// policy.
var detectionCounters = []string{
	"dad.rounds",
	"dad.objections_sent",
	"dad.arep_accepted",
	"dad.arep_rejected",
	"dad.drep_accepted",
	"dad.drep_rejected",
	"dns.warns_accepted",
}

// formationConfig is the shared base: the scale sweep's constant density
// (~12 neighbours per range disk) at a suite-affordable node count, fast
// DAD timers, no traffic — the run is the bootstrap itself.
func formationConfig(n int) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.N = n
	side := 125 * math.Sqrt(float64(n))
	cfg.Area = geom.Rect{W: side, H: side}
	cfg.Placement = scenario.PlaceUniform
	cfg.BootStagger = 500 * time.Millisecond
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Flows = nil
	return cfg
}

// conflictSpec seeds conflicts into a built scenario and returns how many
// of each kind it planted.
type conflictSpec func(t *testing.T, sc *scenario.Scenario) (dupPairs, nameConflicts int)

// formationCase is one cell of the conformance matrix.
type formationCase struct {
	n      int
	mutate func(*scenario.Config) // pre-build config tweaks
	seed   conflictSpec           // post-build conflict seeding
}

// formationMatrix is the scenario matrix: a clean formation, one with
// duplicate-address claims, and one with a duplicate domain name against a
// pre-provisioned binding (the paper's public-server case).
func formationMatrix() map[string]formationCase {
	return map[string]formationCase{
		"clean": {n: 90, seed: func(*testing.T, *scenario.Scenario) (int, int) { return 0, 0 }},
		"duplicate-claims": {n: 90, seed: func(t *testing.T, sc *scenario.Scenario) (int, int) {
			return seedDuplicatePairs(t, sc, 2), 0
		}},
		"name-conflict": {
			n:      90,
			mutate: func(cfg *scenario.Config) { cfg.Preload = map[string]int{"svc": 1} },
			seed: func(t *testing.T, sc *scenario.Scenario) (int, int) {
				return 0, seedNameConflict(t, sc)
			},
		},
	}
}

// seedDuplicatePairs clones the identity of one same-bucket node onto
// another for `pairs` bucket-sharing pairs: the claim collision the paper's
// extended DAD exists to catch. Same-bucket pairs are in guaranteed direct
// radio reach (the bucket diagonal is under half a range), so detection
// must not depend on relays — whichever of the pair the policy admits
// second, the first is configured, hears the AREQ itself, and objects.
func seedDuplicatePairs(t *testing.T, sc *scenario.Scenario, pairs int) int {
	t.Helper()
	g := geom.NewGrid(sc.Cfg.Radio.Range * boot.DefaultCellFraction)
	for i := 0; i < sc.Cfg.N; i++ {
		g.Set(i, sc.Engine().PosNow(radio.NodeID(i)))
	}
	seeded := 0
	used := map[int]bool{0: true, 1: true} // keep the anchor and preload targets pristine
	for i := 1; i < sc.Cfg.N && seeded < pairs; i++ {
		if used[i] {
			continue
		}
		ix, iy, _ := g.CellOf(i)
		for j := i + 1; j < sc.Cfg.N; j++ {
			if used[j] {
				continue
			}
			jx, jy, _ := g.CellOf(j)
			if ix == jx && iy == jy {
				*sc.Nodes[j].Identity() = *sc.Nodes[i].Identity()
				used[i], used[j] = true, true
				seeded++
				break
			}
		}
	}
	if seeded < pairs {
		t.Fatalf("placement yielded only %d same-bucket pairs, want %d (grow N)", seeded, pairs)
	}
	return seeded
}

// seedNameConflict registers a node's domain name against a permanently
// pre-provisioned binding (the paper's public-server case). The claimant is
// chosen within direct radio reach of the DNS anchor so the 6DNAR check
// cannot depend on relays either.
func seedNameConflict(t *testing.T, sc *scenario.Scenario) int {
	t.Helper()
	anchor := sc.Engine().PosNow(0)
	reach := sc.Cfg.Radio.Range * 0.6
	for j := 2; j < sc.Cfg.N; j++ {
		if sc.Engine().PosNow(radio.NodeID(j)).Dist(anchor) <= reach {
			sc.Nodes[j].Identity().Name = "svc"
			return 1
		}
	}
	t.Fatal("no node within direct reach of the DNS anchor (grow N)")
	return 0
}

// formationOutcome is everything a formation run is judged on.
type formationOutcome struct {
	Configured int
	VirtualS   float64
	Addrs      map[string]int // address -> count; any count > 1 is a duplicate
	Counters   map[string]float64
}

// runFormation builds the config, seeds conflicts, bootstraps, and
// collects the outcome plus the full merged per-node metrics (for the
// byte-determinism check).
func runFormation(t *testing.T, cfg scenario.Config, seedConflicts conflictSpec) (formationOutcome, *trace.Metrics, int, int) {
	t.Helper()
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (%v, seed %d): %v", cfg.Boot, cfg.Seed, err)
	}
	dups, names := seedConflicts(t, sc)
	configured := sc.Bootstrap()

	merged := trace.NewMetrics()
	out := formationOutcome{
		Configured: configured,
		VirtualS:   sc.Now().Seconds(),
		Addrs:      map[string]int{},
		Counters:   map[string]float64{},
	}
	for _, n := range sc.Nodes {
		out.Addrs[n.Addr().String()]++
		merged.Merge(n.Metrics())
	}
	for _, c := range detectionCounters {
		out.Counters[c] = merged.Get(c)
	}
	return out, merged, dups, names
}

func TestFormationConformance(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2] // keep the -race CI lap affordable
	}
	for name, m := range formationMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range seeds {
				perPolicy := map[boot.Kind]formationOutcome{}
				for _, k := range []boot.Kind{boot.Serial, boot.PerCell} {
					cfg := formationConfig(m.n)
					cfg.Seed = seed
					cfg.Boot = k
					if m.mutate != nil {
						m.mutate(&cfg)
					}
					out, metrics, dups, nameConf := runFormation(t, cfg, m.seed)
					perPolicy[k] = out

					// Fully addressed, and no address claimed twice.
					if out.Configured != m.n {
						t.Errorf("%v seed %d: %d/%d nodes addressed", k, seed, out.Configured, m.n)
					}
					for addr, count := range out.Addrs {
						if count > 1 {
							t.Errorf("%v seed %d: address %s held by %d nodes", k, seed, addr, count)
						}
					}

					// Every seeded conflict was detected — exactly once.
					if got := out.Counters["dad.arep_accepted"]; got != float64(dups) {
						t.Errorf("%v seed %d: %v duplicate claims detected, want %d", k, seed, got, dups)
					}
					if got := out.Counters["dad.objections_sent"]; got != float64(dups) {
						t.Errorf("%v seed %d: %v objections sent, want %d", k, seed, got, dups)
					}
					if got := out.Counters["dad.drep_accepted"]; got != float64(nameConf) {
						t.Errorf("%v seed %d: %v name conflicts detected, want %d", k, seed, got, nameConf)
					}
					// Each detection costs its claimant exactly one extra round.
					if got := out.Counters["dad.rounds"]; got != float64(m.n+dups+nameConf) {
						t.Errorf("%v seed %d: %v DAD rounds, want %d", k, seed, got, m.n+dups+nameConf)
					}

					// Byte-for-byte determinism: an identical second run must
					// agree on every counter of every node, not just the
					// curated ones.
					out2, metrics2, _, _ := runFormation(t, cfg, m.seed)
					if !reflect.DeepEqual(out, out2) || !reflect.DeepEqual(metrics, metrics2) {
						t.Errorf("%v seed %d: two runs of one seed diverged", k, seed)
					}
				}

				// Identical detection counters across policies.
				serial, percell := perPolicy[boot.Serial], perPolicy[boot.PerCell]
				for _, c := range detectionCounters {
					if serial.Counters[c] != percell.Counters[c] {
						t.Errorf("seed %d: counter %q: serial %v, percell %v",
							seed, c, serial.Counters[c], percell.Counters[c])
					}
				}
				// And the suite is not vacuous about the policies differing:
				// per-cell admission must actually compress formation time.
				if percell.VirtualS*4 > serial.VirtualS {
					t.Errorf("seed %d: per-cell formation (%.1fs) not markedly shorter than serial (%.1fs)",
						seed, percell.VirtualS, serial.VirtualS)
				}
			}
		})
	}
}

// TestFormationSchedulesDiffer pins the suite's premise: the two policies
// produce genuinely different admission schedules for the same build, and
// the per-cell horizon is a small multiple of the stagger instead of N
// staggers.
func TestFormationSchedulesDiffer(t *testing.T) {
	for _, k := range []boot.Kind{boot.Serial, boot.PerCell} {
		cfg := formationConfig(90)
		cfg.Seed = 1
		cfg.Boot = k
		sc, err := scenario.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		offs := sc.BootOffsets()
		if offs[0] != 0 {
			t.Errorf("%v: anchor starts at %v, want 0", k, offs[0])
		}
		last := time.Duration(0)
		for _, o := range offs {
			if o > last {
				last = o
			}
		}
		switch k {
		case boot.Serial:
			if want := time.Duration(89) * cfg.BootStagger; last != want {
				t.Errorf("serial horizon %v, want %v", last, want)
			}
		case boot.PerCell:
			if limit := 8 * cfg.BootStagger; last > limit {
				t.Errorf("percell horizon %v, want under %v", last, limit)
			}
		}
	}
}
