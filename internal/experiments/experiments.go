// Package experiments regenerates every table, figure and security-analysis
// claim of the paper, plus derived quantitative experiments. Each
// experiment is a pure function from options to result tables, shared by
// cmd/sbrbench (printing), the root benchmark suite and the integration
// tests. `sbrbench -list` prints the index. Each experiment reproduces one
// claim, and the named shape test in experiments_test.go asserts it:
//
//	T1  Table 1   secure messages outgrow plain ones, RSA's most        TestT1MessageSizes
//	T2  Table 2   what each suite's sign, verify and CGA hash cost      TestT2CryptoCosts
//	F1  Figure 1  the CGA layout; a w-bit takeover costs ~2^w hashes    TestF1LayoutAndTakeover
//	F2  Figure 2  secure DAD catches duplicate addresses and names      TestF2DADWalkthrough
//	F3  Figure 3  signed route records, and a CREP from a cache         TestF3RouteDiscoveryWalkthrough
//	S1  Sec. 4    a fake DNS poisons plain DSR only; replays fail       TestS1DNSImpersonation
//	S2  Sec. 4    black holes collapse DSR; credits keep delivering     TestS2BlackHoleShape
//	S3  Sec. 4    forged and replayed AREP/DREP/RREP/CREP are rejected  TestS3ForgeReplayTable
//	S4  Sec. 4    RERR spammers are flagged; forged RERRs fail the CGA  TestS4RERRSpam
//	E1  derived   security costs bytes and crypto at every size         TestE1OverheadShape
//	E2  derived   both suites deliver; RSA requests are larger          TestE2SuiteAblation
//	E3  derived   credits route around an insider black hole            TestE3CreditConvergence
//	E4  derived   truncated CGA hashes collide at the birthday bound    TestE4CollisionBirthday
//	E5  derived   the route cache and CREP cut discovery attempts       TestE5CacheAblation
//	E6  derived   DAD falsely succeeds only when loss eats objections   TestE6DADLossShape
//
// TestExperimentsLedger pins every table of `sbrbench -exp all` to
// testdata/ledger.txt at zero tolerance, with wall-clock cells masked.
package experiments

import (
	"fmt"
	"sort"

	"sbr6"
	"sbr6/internal/trace"
)

// Options configure a run.
type Options struct {
	// Seed drives every simulation in the experiment.
	Seed int64
	// Quick shrinks sweeps for fast CI/bench runs; full mode runs each
	// sweep's whole range.
	Quick bool
	// Replicates averages stochastic sweeps (currently S2) over this many
	// seeds; 0 or 1 means a single run. Replicates fan out across the
	// facade Runner's worker pool.
	Replicates int
	// Observer optionally streams per-run progress while experiments
	// execute (cmd/sbrbench wires its -progress flag here).
	Observer sbr6.Observer
}

// replicateSeeds returns the seed list a stochastic sweep averages over:
// the base seed, then steps of 101.
func (o Options) replicateSeeds() []int64 {
	reps := o.replicates()
	seeds := make([]int64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		seeds = append(seeds, o.Seed+int64(rep)*101)
	}
	return seeds
}

// DefaultOptions is the configuration `sbrbench -exp all` runs with.
func DefaultOptions() Options { return Options{Seed: 1, Replicates: 3} }

// replicates normalizes the replicate count.
func (o Options) replicates() int {
	if o.Quick || o.Replicates < 1 {
		return 1
	}
	return o.Replicates
}

// Experiment is one reproducible artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) []*trace.Table
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Options) []*trace.Table) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// All returns every experiment in id order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// idLess orders T1 < T2 < F1 < ... < S1 < ... < E1 < ...
func idLess(a, b string) bool {
	rank := func(id string) string {
		order := map[byte]byte{'T': '1', 'F': '2', 'S': '3', 'E': '4'}
		if len(id) == 0 {
			return id
		}
		return string(order[id[0]]) + id[1:]
	}
	return rank(a) < rank(b)
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids())
	}
	return e, nil
}

func ids() []string {
	out := make([]string, 0, len(registry))
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}
