package audit_test

// Cluster-merge coverage: two disjointly bootstrapped partitions joined via
// mobility. Sobrado & Uhring's self-forming-network dynamics make merging
// clusters the COMMON case, and a merge is the one duplicate-address shape
// no formation-time defense can touch: both claimants complete DAD long
// before they share a radio, so there is no objection window left to
// protect. The suite proves both directions:
//
//   - with the audit sweep, the colliding address is detected and resolved
//     within k sweep periods of the merge completing;
//   - without it, the duplicate provably persists through the same span —
//     the baseline genuinely cannot detect it (non-vacuity), and the
//     pre-merge network genuinely was partitioned (non-vacuity again).

import (
	"reflect"
	"testing"
	"time"

	"sbr6/internal/scenario"
	"sbr6/internal/trace"
)

// metricsOf merges every node's counters.
func metricsOf(sc *scenario.Scenario) *trace.Metrics {
	m := trace.NewMetrics()
	for _, n := range sc.Nodes {
		m.Merge(n.Metrics())
	}
	return m
}

// mergeConfig stages the trailing third of the network as an independent
// cluster that glides into the main area shortly after formation.
func mergeConfig(seed int64, enabled bool) scenario.Config {
	cfg := auditConfig(90, seed, enabled)
	cfg.Partition = scenario.PartitionSpec{
		Nodes:  30,
		JoinAt: 500 * time.Millisecond,
		Speed:  150, // glide fast: virtual time is cheap, event count is not
	}
	return cfg
}

// seedMergeClone gives one staged-partition node the identity of one
// main-cluster node. No timing constraint is needed: the clusters are
// beyond radio reach for the whole formation, so BOTH claims always
// succeed whatever the admission schedule does.
func seedMergeClone(t *testing.T, sc *scenario.Scenario) {
	t.Helper()
	main, staged := 1, sc.Cfg.N-sc.Cfg.Partition.Nodes
	*sc.Nodes[staged].Identity() = *sc.Nodes[main].Identity()
}

// runMerge drives one merge scenario end to end and reports the outcome.
func runMerge(t *testing.T, cfg scenario.Config) (out outcome, connected bool) {
	t.Helper()
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedMergeClone(t, sc)

	// Non-vacuity: before formation the deployment really is partitioned.
	if comps := len(sc.Components()); comps < 2 {
		t.Fatalf("staged deployment has %d component(s); partition never existed", comps)
	}

	sc.Bootstrap()

	// Both clones formed independently and hold the same address.
	if dups := duplicates(sc); dups != 1 {
		t.Fatalf("%d duplicate addresses after disjoint formation, want exactly 1", dups)
	}
	if comps := len(sc.Components()); comps < 2 {
		t.Fatalf("clusters already merged during formation (%d component); the merge window never existed", comps)
	}

	// Run past the glide plus k sweep periods.
	span := sc.MergeComplete() - time.Duration(sc.Now()) + resolveK*sweepPeriod
	sc.StartAudits()
	sc.RunFor(span)

	out = outcome{Addrs: map[string]int{}, Counters: map[string]float64{}}
	merged := metricsOf(sc)
	for _, n := range sc.Nodes {
		out.Addrs[n.Addr().String()]++
		if n.Configured() {
			out.Configured++
		}
	}
	for _, c := range auditCounters {
		out.Counters[c] = merged.Get(c)
	}
	return out, sc.Connected()
}

func TestClusterMergeDuplicateResolvedOnlyByAudit(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1] // keep the -race CI lap affordable
	}
	for _, seed := range seeds {
		// With the sweep: resolved within k periods of the merge.
		out, connected := runMerge(t, mergeConfig(seed, true))
		if !connected {
			t.Fatalf("seed %d: clusters never actually merged; the detection claim would be vacuous", seed)
		}
		for addr, count := range out.Addrs {
			if count > 1 {
				t.Errorf("seed %d: address %s still held by %d nodes after the merge + %d sweeps", seed, addr, count, resolveK)
			}
		}
		if out.Configured != 90 {
			t.Errorf("seed %d: %d/90 configured after resolution", seed, out.Configured)
		}
		if got := out.Counters["audit.rekeys"]; got != 2 {
			t.Errorf("seed %d: %v rekeys, want 2 (both clones)", seed, got)
		}
		if got := out.Counters["audit.conflicts"]; got < 2 {
			t.Errorf("seed %d: %v conflicts observed, want >= 2", seed, got)
		}

		// Determinism of the whole merge machinery.
		out2, _ := runMerge(t, mergeConfig(seed, true))
		if !reflect.DeepEqual(out, out2) {
			t.Errorf("seed %d: two merge runs of one seed diverged", seed)
		}

		// Without it: the merged network keeps the duplicate forever.
		base, baseConnected := runMerge(t, mergeConfig(seed, false))
		if !baseConnected {
			t.Fatalf("seed %d: baseline clusters never merged", seed)
		}
		persisting := 0
		for _, count := range base.Addrs {
			if count > 1 {
				persisting++
			}
		}
		if persisting != 1 {
			t.Errorf("seed %d: baseline shows %d persisting duplicates, want 1 — one-shot DAD would have to be credited with a detection it cannot make", seed, persisting)
		}
		if got := base.Counters["audit.rekeys"]; got != 0 {
			t.Errorf("seed %d: baseline rekeyed %v nodes with the sweep disabled", seed, got)
		}
	}
}
