// Command sbrbench regenerates the paper's tables, figures and security
// analysis as measured experiments. Each experiment id follows DESIGN.md:
//
//	T1 T2   — Table 1 message formats, Table 2 crypto substrate
//	F1-F3   — Figures 1-3 (CGA layout, secure DAD, route discovery)
//	S1-S4   — Section 4 attacks (DNS impersonation, black hole,
//	          forged/replayed control, RERR spam)
//	E1-E4   — derived measurements (overhead, suite ablation, credit
//	          convergence, collision probability)
//
// Usage:
//
//	sbrbench -exp all            # everything, full sweeps
//	sbrbench -exp S2,E3 -quick   # selected experiments, small sweeps
//	sbrbench -list               # enumerate experiments
//	sbrbench -scale -json        # scale sweeps (radio medium, wire path,
//	                             # verify cache, formation, audit sweep,
//	                             # sharded engine), JSON
//	                             # output — this is what seeds
//	                             # BENCH_scale.json
//	sbrbench -trend a.json b.json  # machine-independent comparison of two
//	                               # sweeps: exact radio/audit counts,
//	                               # wire allocations, speedup ratios of
//	                               # the paired modes; exits 1 on a
//	                               # regression, 2 on unreadable input
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sbr6"
	"sbr6/internal/boot"
	"sbr6/internal/experiments"
	"sbr6/internal/scalebench"
	"sbr6/internal/trace"
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
		jsonOut  = flag.Bool("json", false, "with -scale, emit the results as JSON (seeds BENCH_scale.json)")
		rounds   = flag.Int("rounds", 3, "flood rounds per scale cell")
		trend    = flag.Bool("trend", false, "compare two scale sweep JSON files: sbrbench -trend old.json new.json")
		trendTol = flag.Float64("trend-threshold", 0.15, "fractional wire-allocation growth or speedup-ratio erosion that -trend flags as a regression; radio and audit counts are gated exactly")
	)
	flag.Parse()

	if *trend {
		os.Exit(runTrend(flag.Args(), *trendTol))
	}

	if *scale {
		if *rounds < 1 {
			fmt.Fprintf(os.Stderr, "sbrbench: -rounds %d must be at least 1\n", *rounds)
			os.Exit(2)
		}
		runScaleSweep(*seed, *rounds, *jsonOut)
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

// runTrend loads two scale sweep JSON files (older first), renders the
// per-cell comparison — exact radio and audit counts, wire allocations,
// speedup ratios of the paired modes, none of them tied to machine speed —
// and returns 1 when any row regressed, the exit code CI keys the
// regression warning on, or 2 when the input cannot be read.
func runTrend(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "sbrbench: -trend needs exactly two files: old.json new.json")
		return 2
	}
	load := func(path string) []scalebench.ScaleResult {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sbrbench: %v\n", err)
			os.Exit(2)
		}
		var rs []scalebench.ScaleResult
		if err := json.Unmarshal(raw, &rs); err != nil {
			fmt.Fprintf(os.Stderr, "sbrbench: %s: %v\n", path, err)
			os.Exit(2)
		}
		return rs
	}
	rows := scalebench.Trend(load(args[0]), load(args[1]), threshold)
	fmt.Println(scalebench.RenderTrend(rows, threshold))
	if scalebench.Regressed(rows) {
		fmt.Fprintf(os.Stderr, "sbrbench: the sweeps differ beyond the gate (threshold %.0f%%, see table)\n", threshold*100)
		return 1
	}
	return 0
}

// runScaleSweep measures every scalebench workload at up to 100000 nodes:
// the flood and audit workloads as event and frame counts, the wire path
// as allocations per broadcast, and the verification, formation and
// sharded-engine workloads as baseline/optimized pairs, with wall time per
// round beside each.
func runScaleSweep(seed int64, rounds int, jsonOut bool) {
	sizes := []int{250, 1000, 4000, 10000}
	var results []scalebench.ScaleResult
	for _, n := range sizes {
		results = append(results, scalebench.RunScale(n, seed, rounds, time.Now))
	}
	for _, n := range sizes {
		results = append(results, scalebench.RunWire(n, seed, rounds, time.Now))
	}
	for _, n := range sizes {
		for _, cached := range []bool{false, true} {
			results = append(results, scalebench.RunCryptoScale(n, cached, seed, rounds, time.Now))
		}
	}
	for _, n := range []int{1000, 4000, 10000} {
		for _, k := range []boot.Kind{boot.Serial, boot.PerCell} {
			r := scalebench.RunFormation(n, k, seed, time.Now)
			if r.Configured != r.Nodes {
				// Never record an incomplete formation as a speedup: a fast
				// wall clock with unaddressed nodes is a broken policy, and
				// this sweep seeds the trend baseline.
				fmt.Fprintf(os.Stderr, "sbrbench: %s formation at %d nodes left %d unaddressed\n",
					k, n, r.Nodes-r.Configured)
				os.Exit(1)
			}
			results = append(results, r)
		}
	}
	for _, n := range []int{250, 1000, 4000} {
		results = append(results, scalebench.RunAuditSweep(n, seed, rounds, time.Now))
	}
	// The sharded engine is the only workload that reaches 100k nodes.
	// Serial is the engine at one region, so the pair divides
	// byte-identical computations and only wall time differs.
	for _, n := range []int{10000, 100000} {
		for _, regions := range []int{1, scalebench.ShardRegions} {
			results = append(results, scalebench.RunShard(n, regions, seed, rounds, time.Now))
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	radioT := trace.NewTable("radio medium scale sweep (per flood round)",
		"nodes", "wall ms", "events", "tx frames", "rx frames", "mean degree")
	wireT := trace.NewTable("wire path scale sweep (pooled frames)",
		"nodes", "allocs/broadcast", "wall ms/round")
	cryptoT := trace.NewTable("verification scale sweep (wall ms per verify round)",
		"nodes", "nocache", "cache", "speedup", "crypto ops saved")
	formT := trace.NewTable("formation scale sweep (wall ms to fully addressed)",
		"nodes", "serial", "percell", "speedup", "virtual time")
	auditT := trace.NewTable("audit sweep cost (per sweep period)",
		"nodes", "wall ms", "events", "tx frames", "rx frames")
	shardT := trace.NewTable(fmt.Sprintf("sharded engine flood sweep (wall ms per round, %d regions)", scalebench.ShardRegions),
		"nodes", "serial", "sharded", "speedup", "mean degree")
	perRound := func(v uint64) string { return fmt.Sprint(v / uint64(rounds)) }
	for i := 0; i < len(results); i++ {
		a := results[i]
		switch a.Mode {
		case "radio":
			radioT.Add(fmt.Sprint(a.Nodes), fmt.Sprintf("%.1f", a.WallMS),
				perRound(a.Events), perRound(a.TxFrames), perRound(a.RxFrames),
				fmt.Sprintf("%.1f", a.Degree))
			continue
		case "wire":
			wireT.Add(fmt.Sprint(a.Nodes), fmt.Sprintf("%.4f", a.AllocsPerOp), fmt.Sprintf("%.1f", a.WallMS))
			continue
		case "audit":
			auditT.Add(fmt.Sprint(a.Nodes), fmt.Sprintf("%.1f", a.WallMS),
				perRound(a.Events), perRound(a.TxFrames), perRound(a.RxFrames))
			continue
		}
		// The remaining modes are measured in baseline/optimized pairs.
		b := results[i+1]
		i++
		switch a.Mode {
		case "crypto":
			cryptoT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS),
				fmt.Sprintf("%d/%d", a.VerifyOps-b.VerifyOps, a.VerifyOps))
		case "formation":
			formT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS),
				fmt.Sprintf("%.0fs -> %.1fs", a.VirtualS, b.VirtualS))
		case "shard":
			shardT.Add(fmt.Sprint(a.Nodes),
				fmt.Sprintf("%.1f", a.WallMS), fmt.Sprintf("%.1f", b.WallMS),
				fmt.Sprintf("%.1fx", a.WallMS/b.WallMS), fmt.Sprintf("%.1f", a.Degree))
		}
	}
	fmt.Println(radioT.String())
	fmt.Println(wireT.String())
	fmt.Println(cryptoT.String())
	fmt.Println(formT.String())
	fmt.Println(auditT.String())
	fmt.Println(shardT.String())
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
