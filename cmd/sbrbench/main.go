// Command sbrbench regenerates the paper's tables, figures and security
// analysis as measured experiments. `sbrbench -list` enumerates the
// experiment ids, which internal/experiments/experiments.go indexes:
//
//	T1 T2   — Table 1 message formats, Table 2 crypto substrate
//	F1-F3   — Figures 1-3 (CGA layout, secure DAD, route discovery)
//	S1-S4   — Section 4 attacks (DNS impersonation, black hole,
//	          forged/replayed control, RERR spam)
//	E1-E6   — derived measurements (overhead, suite ablation, credit
//	          convergence, collision probability, route cache, DAD
//	          under loss)
//
// Usage:
//
//	sbrbench -exp all            # everything, full sweeps
//	sbrbench -exp S2,E3 -quick   # selected experiments, small sweeps
//	sbrbench -list               # enumerate experiments
//	sbrbench -scale -rounds 1    # scale sweeps (radio medium, wire path,
//	                             # verify cache, formation, audit sweep,
//	                             # shard engine), one row per count in
//	                             # perfbench's `name value unit samples`
//	                             # layout; .github/scale-ledger.sh keeps
//	                             # the exact rows for CI's zero-tolerance
//	                             # diff
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sbr6"
	"sbr6/internal/boot"
	"sbr6/internal/experiments"
	"sbr6/internal/scalebench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed     = flag.Int64("seed", 1, "simulation seed")
		quick    = flag.Bool("quick", false, "shrink sweeps for a fast run")
		reps     = flag.Int("reps", 3, "replicate seeds for stochastic sweeps (fanned out in parallel)")
		progress = flag.Bool("progress", false, "stream per-run progress to stderr while experiments execute")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list     = flag.Bool("list", false, "list available experiments and exit")
		scale    = flag.Bool("scale", false, "run the scale sweeps (radio, wire, crypto, formation, audit, shard) instead of experiments")
		rounds   = flag.Int("rounds", 3, "timed rounds per scale cell")
	)
	flag.Parse()

	if *scale {
		if *rounds < 1 {
			fmt.Fprintf(os.Stderr, "sbrbench: -rounds %d must be at least 1\n", *rounds)
			os.Exit(2)
		}
		runScaleSweep(*seed, *rounds)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := experiments.Options{Seed: *seed, Quick: *quick, Replicates: *reps}
	if *progress {
		opts.Observer = sbr6.NewProgressObserver(os.Stderr)
	}
	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	runExperiments(selected, opts, *csv)
}

// runScaleSweep measures every scalebench workload at up to 100000 nodes
// and prints each cell's rows as it completes: exact counts, then wall
// time, which is reported and never gated.
func runScaleSweep(seed int64, rounds int) {
	scalebench.WriteHeader(os.Stdout)
	sizes := []int{250, 1000, 4000, 10000}
	for _, n := range sizes {
		scalebench.RunScale(n, seed, rounds, time.Now).WriteRows(os.Stdout)
	}
	for _, n := range sizes {
		scalebench.RunWire(n, seed, rounds, time.Now).WriteRows(os.Stdout)
	}
	for _, n := range sizes {
		scalebench.RunCryptoScale(n, seed, rounds, time.Now).WriteRows(os.Stdout)
	}
	for _, n := range []int{1000, 4000, 10000} {
		for _, k := range []boot.Kind{boot.Serial, boot.PerCell} {
			scalebench.RunFormation(n, k, seed, time.Now).WriteRows(os.Stdout)
		}
	}
	for _, n := range []int{250, 1000, 4000} {
		scalebench.RunAuditSweep(n, seed, rounds, time.Now).WriteRows(os.Stdout)
	}
	// The shard engine is the only workload that reaches 100k nodes.
	for _, n := range []int{10000, 100000} {
		for _, regions := range []int{1, scalebench.ShardRegions} {
			scalebench.RunShard(n, regions, seed, rounds, time.Now).WriteRows(os.Stdout)
		}
	}
}

func runExperiments(selected []experiments.Experiment, opts experiments.Options, csv bool) {
	for _, e := range selected {
		start := time.Now()
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		for _, tb := range e.Run(opts) {
			if csv {
				fmt.Printf("# %s\n%s\n", tb.Title, tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		fmt.Printf("(%s completed in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
