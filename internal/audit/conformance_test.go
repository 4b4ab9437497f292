package audit_test

// Audit conformance suite: the proof obligation for the post-formation
// address audit sweep. PR 4's per-cell admission provably cannot detect a
// duplicate claim made simultaneously from a different cell — neither
// claimant is configured while the other's DAD flood is in the air — so
// these tests seed exactly that shape and hold the sweep to:
//
//   - every seeded cross-cell duplicate is found and resolved within k
//     sweep periods: all addresses unique again, every claimant fully
//     re-configured, and the detection visible on the audit counters;
//   - the no-audit baseline provably does NOT resolve them (non-vacuity:
//     the duplicates this suite seeds would otherwise persist forever);
//   - a disabled sweep is a byte-for-byte no-op: on conflict-free
//     scenarios a zero-value audit config produces results identical to
//     an explicitly disabled one, twice over (double-run determinism);
//   - an enabled sweep on a conflict-free scenario rekeys nobody and
//     leaves every formation outcome (addresses, detection counters)
//     exactly as the disabled run had them;
//   - the audit-enabled run is itself byte-for-byte deterministic per
//     seed.

import (
	"math"
	"reflect"
	"testing"
	"time"

	"sbr6/internal/audit"
	"sbr6/internal/boot"
	"sbr6/internal/geom"
	"sbr6/internal/radio"
	"sbr6/internal/scenario"
	"sbr6/internal/trace"
)

// sweepPeriod is the audit period every conformance scenario uses; resolveK
// is the acceptance bound: every seeded duplicate must be gone within
// resolveK periods of the first sweep.
const (
	sweepPeriod = 2 * time.Second
	resolveK    = 3
)

// auditConfig is the shared base: per-cell admission at the scale sweep's
// constant density, fast DAD timers, no traffic. Audit on or off per test.
func auditConfig(n int, seed int64, enabled bool) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Seed = seed
	cfg.N = n
	side := 125 * math.Sqrt(float64(n))
	cfg.Area = geom.Rect{W: side, H: side}
	cfg.Placement = scenario.PlaceUniform
	cfg.Boot = boot.PerCell
	cfg.BootStagger = 500 * time.Millisecond
	cfg.Protocol.DAD.Timeout = 300 * time.Millisecond
	cfg.DNS.CommitDelay = 300 * time.Millisecond
	cfg.Flows = nil
	if enabled {
		cfg.Protocol.Audit = audit.Config{Period: sweepPeriod}
	}
	return cfg
}

// seedCrossCellClones plants `pairs` simultaneous cross-cell duplicate
// claims: for each pair, two nodes bucketed in DIFFERENT admission cells
// whose DAD start offsets overlap within half an objection window get one
// identity. Neither is configured while the other's AREQ floods, so
// formation-time DAD cannot catch them under any policy — the exact window
// the per-cell admission documentation concedes.
func seedCrossCellClones(t *testing.T, sc *scenario.Scenario, pairs int) int {
	t.Helper()
	offs := sc.BootOffsets()
	window := sc.Cfg.Protocol.DAD.ObjectionWindow()
	g := geom.NewGrid(sc.Cfg.Radio.Range * boot.DefaultCellFraction)
	for i := 0; i < sc.Cfg.N; i++ {
		g.Set(i, sc.Engine().PosNow(radio.NodeID(i)))
	}
	seeded := 0
	used := map[int]bool{0: true}
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
				continue // same cell: PR 4 already covers this pair
			}
			delta := offs[i] - offs[j]
			if delta < 0 {
				delta = -delta
			}
			if delta >= window/2 {
				continue // not simultaneous enough: DAD might catch it
			}
			*sc.Nodes[j].Identity() = *sc.Nodes[i].Identity()
			used[i], used[j] = true, true
			seeded++
			break
		}
	}
	if seeded < pairs {
		t.Fatalf("placement yielded only %d simultaneous cross-cell pairs, want %d (grow N)", seeded, pairs)
	}
	return seeded
}

// outcome is everything an audit run is judged on.
type outcome struct {
	Configured int
	Addrs      map[string]int
	Counters   map[string]float64
}

var auditCounters = []string{
	"audit.adv_sent",
	"audit.conflicts",
	"audit.objections_sent",
	"audit.rekeys",
	"audit.adv_rejected",
	"audit.obj_rejected",
	"audit.replays_ignored",
	"dad.arep_accepted",
	"dad.objections_sent",
	"dad.rounds",
}

// runAudit builds cfg, seeds `pairs` cross-cell clones, bootstraps, runs
// the sweep (or plain time when disabled) for `span`, and collects the
// outcome plus the full merged metrics for byte-determinism checks.
func runAudit(t *testing.T, cfg scenario.Config, pairs int, span time.Duration) (outcome, *trace.Metrics) {
	t.Helper()
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("build (seed %d): %v", cfg.Seed, err)
	}
	if pairs > 0 {
		seedCrossCellClones(t, sc, pairs)
	}
	sc.Bootstrap()

	if pairs > 0 {
		// Non-vacuity: the seeded duplicates survived formation — per-cell
		// admission really cannot see them.
		dups := duplicates(sc)
		if dups != pairs {
			t.Fatalf("seed %d: %d duplicate addresses after formation, want %d — the seeded shape is not the PR4 blind spot",
				cfg.Seed, dups, pairs)
		}
	}

	sc.StartAudits()
	sc.RunFor(span)

	merged := trace.NewMetrics()
	out := outcome{Addrs: map[string]int{}, Counters: map[string]float64{}}
	for _, n := range sc.Nodes {
		out.Addrs[n.Addr().String()]++
		if n.Configured() {
			out.Configured++
		}
		merged.Merge(n.Metrics())
	}
	for _, c := range auditCounters {
		out.Counters[c] = merged.Get(c)
	}
	return out, merged
}

// duplicates counts addresses held by more than one node.
func duplicates(sc *scenario.Scenario) int {
	addrs := map[string]int{}
	for _, n := range sc.Nodes {
		addrs[n.Addr().String()]++
	}
	dups := 0
	for _, c := range addrs {
		if c > 1 {
			dups += c - 1
		}
	}
	return dups
}

func TestAuditResolvesCrossCellDuplicates(t *testing.T) {
	const n, pairs = 90, 2
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:2] // keep the -race CI lap affordable
	}
	span := resolveK * sweepPeriod
	for _, seed := range seeds {
		// The audit sweep finds and resolves every seeded duplicate.
		out, metrics := runAudit(t, auditConfig(n, seed, true), pairs, span)
		for addr, count := range out.Addrs {
			if count > 1 {
				t.Errorf("seed %d: address %s still held by %d nodes after %d sweep periods", seed, addr, count, resolveK)
			}
		}
		if out.Configured != n {
			t.Errorf("seed %d: %d/%d nodes configured after resolution (a rekeyed claimant failed to re-form)", seed, out.Configured, n)
		}
		// Cloned bindings are indistinguishable, so BOTH claimants of each
		// pair must have rekeyed, each logging exactly one conflict.
		if got := out.Counters["audit.rekeys"]; got != float64(2*pairs) {
			t.Errorf("seed %d: %v rekeys, want %d (both clones of each pair)", seed, got, 2*pairs)
		}
		if got := out.Counters["audit.conflicts"]; got != float64(2*pairs) {
			t.Errorf("seed %d: %v conflicts observed, want %d", seed, got, 2*pairs)
		}
		if got := out.Counters["audit.objections_sent"]; got < float64(pairs) {
			t.Errorf("seed %d: only %v objections sent, want >= %d", seed, got, pairs)
		}
		// Each rekey re-runs DAD exactly once on a fresh address.
		if got := out.Counters["dad.rounds"]; got != float64(n+2*pairs) {
			t.Errorf("seed %d: %v DAD rounds, want %d", seed, got, n+2*pairs)
		}
		// Nothing was rejected and no replay filtering fired: the suite's
		// traffic is all honest and live.
		for _, c := range []string{"audit.adv_rejected", "audit.obj_rejected"} {
			if got := out.Counters[c]; got != 0 {
				t.Errorf("seed %d: %s = %v on an honest run", seed, c, got)
			}
		}

		// Byte determinism: an identical second run agrees on every counter
		// of every node.
		out2, metrics2 := runAudit(t, auditConfig(n, seed, true), pairs, span)
		if !reflect.DeepEqual(out, out2) || !reflect.DeepEqual(metrics, metrics2) {
			t.Errorf("seed %d: two audit-enabled runs of one seed diverged", seed)
		}

		// Non-vacuity the other way: without the sweep the duplicates
		// persist through the same span — one-shot DAD alone can never
		// resolve them.
		base, _ := runAudit(t, auditConfig(n, seed, false), pairs, span)
		persisting := 0
		for _, count := range base.Addrs {
			if count > 1 {
				persisting++
			}
		}
		if persisting != pairs {
			t.Errorf("seed %d: baseline shows %d persisting duplicates, want %d — the audit assertion would be vacuous", seed, persisting, pairs)
		}
		if got := base.Counters["audit.rekeys"]; got != 0 {
			t.Errorf("seed %d: disabled sweep rekeyed %v nodes", seed, got)
		}
	}
}

// TestAuditDisabledIsNoOp pins the differential bar: on a conflict-free
// scenario the zero-value audit config, an explicit zero period, and a
// second run of either are all byte-for-byte identical — disabling the
// sweep removes the subsystem entirely. And an ENABLED sweep on the same
// conflict-free scenario must change nothing that matters: same addresses,
// same formation counters, zero conflicts, zero rekeys — its only trace is
// the advertisements themselves.
func TestAuditDisabledIsNoOp(t *testing.T) {
	const n = 90
	span := resolveK * sweepPeriod
	for _, seed := range []int64{1, 2} {
		zero, zeroM := runAudit(t, auditConfig(n, seed, false), 0, span)

		explicit := auditConfig(n, seed, false)
		explicit.Protocol.Audit = audit.Config{} // spelled out: the zero value
		off2, off2M := runAudit(t, explicit, 0, span)
		if !reflect.DeepEqual(zero, off2) || !reflect.DeepEqual(zeroM, off2M) {
			t.Errorf("seed %d: zero-value and explicit disabled configs diverged", seed)
		}
		again, againM := runAudit(t, auditConfig(n, seed, false), 0, span)
		if !reflect.DeepEqual(zero, again) || !reflect.DeepEqual(zeroM, againM) {
			t.Errorf("seed %d: two disabled runs of one seed diverged", seed)
		}

		on, _ := runAudit(t, auditConfig(n, seed, true), 0, span)
		if !reflect.DeepEqual(zero.Addrs, on.Addrs) {
			t.Errorf("seed %d: enabling the sweep on a conflict-free run changed the address assignment", seed)
		}
		for _, c := range []string{"audit.conflicts", "audit.rekeys", "audit.objections_sent", "audit.adv_rejected"} {
			if got := on.Counters[c]; got != 0 {
				t.Errorf("seed %d: conflict-free sweep produced %s = %v", seed, c, got)
			}
		}
		for _, c := range []string{"dad.rounds", "dad.arep_accepted", "dad.objections_sent"} {
			if zero.Counters[c] != on.Counters[c] {
				t.Errorf("seed %d: formation counter %s: disabled %v, enabled %v",
					seed, c, zero.Counters[c], on.Counters[c])
			}
		}
		if on.Counters["audit.adv_sent"] == 0 {
			t.Errorf("seed %d: enabled sweep sent no advertisements — the no-op comparison is vacuous", seed)
		}
	}
}

// TestAuditRekeyPreservesNameBinding: a NAMED claimant that loses an audit
// conflict must neither be silently renamed (its re-run AREQ colliding
// with its own committed DNS record would draw the server's 6DNAR
// objection) nor leave the DNS serving the abandoned address. The rekey
// runs address-only DAD and then moves the binding through the signed
// update protocol, so the name survives and resolves to the fresh address.
func TestAuditRekeyPreservesNameBinding(t *testing.T) {
	cfg := auditConfig(90, 1, true)
	cfg.Names = map[int]string{1: "victim-host"}
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Clone node 1's identity (name included) onto a cross-cell partner so
	// the named node itself ends up rekeying. The clone sheds the copied
	// name so only the victim re-binds.
	offs := sc.BootOffsets()
	window := cfg.Protocol.DAD.ObjectionWindow()
	g := geom.NewGrid(cfg.Radio.Range * boot.DefaultCellFraction)
	for i := 0; i < cfg.N; i++ {
		g.Set(i, sc.Engine().PosNow(radio.NodeID(i)))
	}
	ix, iy, _ := g.CellOf(1)
	clone := -1
	for j := 2; j < cfg.N; j++ {
		jx, jy, _ := g.CellOf(j)
		delta := offs[1] - offs[j]
		if delta < 0 {
			delta = -delta
		}
		if (jx != ix || jy != iy) && delta < window/2 {
			clone = j
			break
		}
	}
	if clone < 0 {
		t.Skip("no simultaneous cross-cell partner for node 1 under this seed")
	}
	*sc.Nodes[clone].Identity() = *sc.Nodes[1].Identity()
	sc.Nodes[clone].Identity().Name = ""

	sc.Bootstrap()
	if sc.Nodes[1].Addr() != sc.Nodes[clone].Addr() {
		t.Fatal("clone pair did not survive formation; the rekey path is never exercised")
	}
	stolen := sc.Nodes[1].Addr()

	// Sweeps plus headroom for the post-DAD update round trip.
	span := resolveK*sweepPeriod + 4*time.Second
	sc.StartAudits()
	sc.RunFor(span)

	victim := sc.Nodes[1]
	if victim.Addr() == stolen || sc.Nodes[clone].Addr() == victim.Addr() {
		t.Fatalf("conflict unresolved: victim %s, clone %s", victim.Addr(), sc.Nodes[clone].Addr())
	}
	if got := victim.Name(); got != "victim-host" {
		t.Fatalf("victim renamed to %q by its own DNS record", got)
	}
	if got, ok := sc.DNSSrv.Lookup("victim-host"); !ok || got != victim.Addr() {
		t.Fatalf("DNS serves victim-host -> %s (ok=%v), want the fresh address %s", got, ok, victim.Addr())
	}
	if metricsOf(sc).Get("dns.rebind_ok") == 0 {
		t.Fatal("the signed update protocol never completed")
	}
}
