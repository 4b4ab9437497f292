// Command manetsim runs configurable MANET simulations and prints the
// delivery, overhead and security counters. It is the general-purpose
// front end to the public sbr6 facade; cmd/sbrbench drives the same
// facade through the fixed experiment definitions.
//
// Examples:
//
//	manetsim -n 25 -flows 4                         # secure protocol, grid
//	manetsim -n 25 -secure=false -flows 4           # plain DSR baseline
//	manetsim -n 25 -blackholes 2 -duration 30s      # insider black holes
//	manetsim -n 30 -waypoint -speed 5 -loss 0.05    # mobile, lossy
//	manetsim -n 16 -reps 8 -blackholes 1            # parallel multi-seed batch
//	manetsim -n 9 -windows 5s -progress             # stream per-window PDR
//	manetsim -n 2000 -stagger 5ms -duration 10s     # thousand-node scale run
//	manetsim -n 2000 -boot percell -duration 10s    # concurrent per-cell formation
//	manetsim -n 100 -boot percell -audit 5s         # post-formation audit sweep
//	manetsim -n 2000 -shards 4 -duration 10s        # region-sharded core
//	manetsim -n 16 -windows 1s -serve unix:/tmp/sbr6.sock   # daemon mode
//	manetsim -connect unix:/tmp/sbr6.sock -call info        # client mode
//	manetsim -connect unix:/tmp/sbr6.sock -call advance -params '{"windows":4}'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"sbr6"
	"sbr6/internal/trace"
)

func main() {
	var (
		n          = flag.Int("n", 25, "node count (node 0 is the DNS server)")
		secure     = flag.Bool("secure", true, "secure protocol (false = plain DSR)")
		credits    = flag.Bool("credits", true, "credit management (secure mode)")
		seed       = flag.Int64("seed", 1, "simulation seed (first seed with -reps)")
		reps       = flag.Int("reps", 1, "seed replicates, fanned out across the worker pool")
		workers    = flag.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		area       = flag.Float64("area", 0, "square area side in metres (0 = grid-sized)")
		rng        = flag.Float64("range", 250, "radio range in metres")
		loss       = flag.Float64("loss", 0, "per-receiver frame loss probability")
		waypoint   = flag.Bool("waypoint", false, "random waypoint mobility")
		speed      = flag.Float64("speed", 5, "max waypoint speed m/s")
		duration   = flag.Duration("duration", 30*time.Second, "measurement window; flows send only inside it, in a served session too")
		stagger    = flag.Duration("stagger", 0, "delay between DAD starts (0 = safe default; shrink it for 1k+ nodes)")
		shards     = flag.Int("shards", 0, "spatial regions of the simulation engine, each with its own event loop; results are identical for every count (0 = one region)")
		bootPolicy = flag.String("boot", "serial", "bootstrap admission policy: serial or percell (concurrent per-cell formation)")
		auditEvery = flag.Duration("audit", 0, "post-formation address audit sweep period (0 = disabled)")
		windows    = flag.Duration("windows", 0, "bucket delivery into windows of this size")
		progress   = flag.Bool("progress", false, "stream per-run and per-window progress to stderr")
		flows      = flag.Int("flows", 2, "number of CBR flows")
		interval   = flag.Duration("interval", 500*time.Millisecond, "packet interval per flow")
		size       = flag.Int("size", 64, "payload bytes")
		blackholes = flag.Int("blackholes", 0, "insider black holes (drop data, honest discovery)")
		forging    = flag.Bool("forge", false, "black holes also forge cached-route replies")
		spammers   = flag.Int("spammers", 0, "RERR spammers")
		verbose    = flag.Bool("v", false, "print every node counter")
		traceN     = flag.Int("trace", 0, "print the first N packet receptions")

		serveAddr = flag.String("serve", "",
			`host the simulation as a long-lived session behind the JSON-RPC control plane on this address ("host:port" or "unix:/path")`)
		resumeFile = flag.String("resume", "",
			"with -serve: resume the session from this snapshot file (scenario flags are ignored)")
		connectAddr = flag.String("connect", "", "client mode: address of a -serve daemon")
		callMethod  = flag.String("call", "", "client mode: JSON-RPC method to invoke against -connect")
		callParams  = flag.String("params", "", `client mode: JSON params for -call (e.g. '{"windows":4}')`)
	)
	flag.Parse()

	if *connectAddr != "" {
		os.Exit(runCall(*connectAddr, *callMethod, *callParams))
	}
	if *callMethod != "" || *callParams != "" {
		fmt.Fprintln(os.Stderr, "manetsim: -call/-params require -connect")
		os.Exit(2)
	}
	if *resumeFile != "" && *serveAddr == "" {
		fmt.Fprintln(os.Stderr, "manetsim: -resume requires -serve")
		os.Exit(2)
	}

	opts := []sbr6.Option{
		sbr6.WithSeed(*seed),
		sbr6.WithNodes(*n),
		sbr6.WithDADTimeout(500 * time.Millisecond),
		sbr6.WithDNSCommitDelay(500 * time.Millisecond),
		sbr6.WithDuration(*duration),
		sbr6.WithRadioRange(*rng),
	}
	// A flag left at 0 keeps its option's default; any other value goes to
	// the option, whose refusal exits 2 like every NewScenario error.
	if *stagger != 0 {
		opts = append(opts, sbr6.WithBootStagger(*stagger))
	}
	switch *bootPolicy {
	case "serial":
		opts = append(opts, sbr6.WithBootPolicy(sbr6.BootSerial))
	case "percell":
		opts = append(opts, sbr6.WithBootPolicy(sbr6.BootPerCell))
	default:
		fmt.Fprintf(os.Stderr, "manetsim: -boot %q must be serial or percell\n", *bootPolicy)
		os.Exit(2)
	}
	if *auditEvery != 0 {
		opts = append(opts, sbr6.WithAuditSweep(*auditEvery))
	}
	if *shards != 0 {
		opts = append(opts, sbr6.WithShards(*shards))
	}
	if !*secure {
		opts = append(opts, sbr6.WithBaseline())
	}
	opts = append(opts, sbr6.WithCredits(*secure && *credits))
	if *area != 0 {
		opts = append(opts, sbr6.WithArea(*area, *area), sbr6.WithPlacement(sbr6.PlaceUniform))
	} else {
		opts = append(opts, sbr6.WithPlacement(sbr6.PlaceGrid)) // area auto-sizes to 200 m cells
	}
	if *loss != 0 {
		opts = append(opts, sbr6.WithLoss(*loss))
	}
	if *waypoint {
		opts = append(opts, sbr6.WithMobility(sbr6.Mobility{MinSpeed: 1, MaxSpeed: *speed, Pause: 2 * time.Second}))
	}
	if *windows != 0 {
		opts = append(opts, sbr6.WithWindows(*windows))
	}

	// Flows between deterministic distinct pairs, skipping the DNS node.
	// Guarded on the node count so that degenerate -n values reach the
	// facade's validation instead of dividing by zero here.
	var flowList []sbr6.Flow
	for f := 0; *n >= 2 && f < *flows; f++ {
		from := 1 + (f*2)%(*n-1)
		to := 1 + (f*2+(*n-1)/2)%(*n-1)
		if from == to {
			to = 1 + (to)%(*n-1)
		}
		if from == to {
			continue // tiny networks cannot host this flow
		}
		flowList = append(flowList, sbr6.Flow{From: from, To: to, Interval: *interval, Size: *size})
	}
	opts = append(opts, sbr6.WithFlows(flowList...))

	// Adversary placement: attackers occupy central grid positions.
	side := 1
	for side*side < *n {
		side++
	}
	mid := (side/2)*side + side/2
	var advs []sbr6.Adversary
	taken := map[int]bool{}
	place := func(idx int, mk func(int) sbr6.Adversary) {
		if *n < 2 || len(taken) >= *n-1 {
			// Out of non-anchor slots: refuse rather than silently run a
			// weaker attack than the flags requested. (n < 2 still falls
			// through to the facade's WithNodes error.)
			if *n >= 2 {
				fmt.Fprintf(os.Stderr, "manetsim: %d adversaries requested but only %d non-anchor nodes exist\n",
					*blackholes+*spammers, *n-1)
				os.Exit(2)
			}
			return
		}
		for taken[idx] || idx == 0 {
			idx = (idx + 1) % *n
		}
		taken[idx] = true
		advs = append(advs, mk(idx))
	}
	for b := 0; b < *blackholes; b++ {
		mk := sbr6.BlackHole
		if *forging {
			mk = sbr6.ForgingBlackHole
		}
		place((mid+b)%*n, mk)
	}
	for sp := 0; sp < *spammers; sp++ {
		place((mid-1-sp+*n)%*n, sbr6.RERRSpammer)
	}
	opts = append(opts, sbr6.WithAdversaries(advs...))

	var tr *tracer
	if *traceN > 0 {
		if *reps > 1 {
			fmt.Fprintln(os.Stderr, "manetsim: -trace requires a single run (-reps 1); batch replicates would interleave")
			os.Exit(2)
		}
		tr = &tracer{limit: *traceN}
		opts = append(opts, sbr6.WithTap(tr.record))
	}

	sc, err := sbr6.NewScenario(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *serveAddr != "" {
		os.Exit(runServe(sc, *serveAddr, *resumeFile))
	}

	runner := &sbr6.Runner{Workers: *workers}
	if *progress {
		runner.Observer = sbr6.NewProgressObserver(os.Stderr)
	}
	// Ctrl-C cancels the batch; replicates that already finished are
	// still aggregated and reported by the error path below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("manetsim: n=%d secure=%v credits=%v blackholes=%d(forge=%v) spammers=%d seed=%d reps=%d\n\n",
		*n, *secure, *secure && *credits, *blackholes, *forging, *spammers, *seed, *reps)

	start := time.Now()
	if *reps > 1 {
		batch, err := runner.RunBatch(ctx, sc, sbr6.SeedRange(*seed, *reps))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if batch != nil && batch.Completed() > 0 {
				fmt.Fprintf(os.Stderr, "reporting the %d replicates that completed\n", batch.Completed())
				printBatch(batch, time.Since(start))
			}
			os.Exit(1)
		}
		printBatch(batch, time.Since(start))
		return
	}
	res, err := runner.Run(ctx, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if tr != nil {
		tt := trace.NewTable(fmt.Sprintf("first %d packet receptions", len(tr.rows)), "t", "node", "packet")
		for _, r := range tr.rows {
			tt.Add(fmt.Sprintf("%.3fs", r.At.Seconds()), fmt.Sprint(r.Node), r.Desc)
		}
		fmt.Println(tt.String())
	}
	printSingle(res, *n, time.Since(start), *verbose)
}

func printSingle(res *sbr6.Result, n int, wall time.Duration, verbose bool) {
	summary := trace.NewTable("result", "metric", "value")
	summary.Add("configured", fmt.Sprintf("%d/%d", res.Configured, n))
	summary.Add("packets offered", fmt.Sprint(res.Sent))
	summary.Add("packets delivered", fmt.Sprint(res.Delivered))
	summary.Add("delivery ratio", fmt.Sprintf("%.3f", res.PDR))
	summary.Add("latency mean", fmt.Sprintf("%.4fs", res.LatencyMean))
	summary.Add("latency p95", fmt.Sprintf("%.4fs", res.LatencyP95))
	summary.Add("control bytes", trace.FormatFloat(res.ControlBytes))
	summary.Add("data bytes", trace.FormatFloat(res.DataBytes))
	summary.Add("signatures", trace.FormatFloat(res.CryptoSign))
	summary.Add("verifications", trace.FormatFloat(res.CryptoVerify))
	summary.Add("link frames tx", fmt.Sprint(res.TxFrames))
	summary.Add("link unicast fails", fmt.Sprint(res.UnicastFails))
	summary.Add("wall clock", wall.Round(time.Millisecond).String())
	fmt.Println(summary.String())

	for _, w := range res.Windows {
		fmt.Printf("window @%-6s %3d/%3d delivered (pdr=%.3f)\n", w.Start, w.Delivered, w.Sent, w.PDR())
	}

	if verbose {
		t := trace.NewTable("aggregated node counters", "counter", "value")
		for _, name := range res.MetricNames() {
			t.Add(name, trace.FormatFloat(res.Metric(name)))
		}
		fmt.Println(t.String())
	}
}

func printBatch(batch *sbr6.BatchResult, wall time.Duration) {
	t := trace.NewTable(fmt.Sprintf("batch result — %d/%d replicates", batch.Completed(), len(batch.Seeds)),
		"metric", "mean", "stddev", "95% CI", "min", "max")
	row := func(name string, s sbr6.Stat) {
		t.Add(name, fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("%.3f", s.Stddev),
			fmt.Sprintf("±%.3f", s.CI95), fmt.Sprintf("%.3f", s.Min), fmt.Sprintf("%.3f", s.Max))
	}
	row("delivery ratio", batch.PDR)
	row("latency mean (s)", batch.LatencyMean)
	row("latency p95 (s)", batch.LatencyP95)
	row("control bytes", batch.ControlBytes)
	row("data bytes", batch.DataBytes)
	row("signatures", batch.CryptoSign)
	row("verifications", batch.CryptoVerify)
	row("configured", batch.Configured)
	fmt.Println(t.String())
	printBatchWindows(batch)
	fmt.Printf("wall clock: %s for %d replicates\n", wall.Round(time.Millisecond), len(batch.Seeds))
}

// printBatchWindows aggregates the per-window delivery counts (-windows)
// across the completed replicates.
func printBatchWindows(batch *sbr6.BatchResult) {
	maxW := 0
	for _, r := range batch.Results {
		if r != nil && len(r.Windows) > maxW {
			maxW = len(r.Windows)
		}
	}
	if maxW == 0 {
		return
	}
	wt := trace.NewTable("per-window delivery (mean over replicates)",
		"window", "sent", "delivered", "PDR")
	for w := 0; w < maxW; w++ {
		var start time.Duration
		sent, delivered, pdr, n := 0.0, 0.0, 0.0, 0
		for _, r := range batch.Results {
			if r == nil || w >= len(r.Windows) {
				continue
			}
			win := r.Windows[w]
			start = win.Start
			sent += float64(win.Sent)
			delivered += float64(win.Delivered)
			pdr += win.PDR()
			n++
		}
		if n == 0 {
			continue
		}
		wt.Add(start.String(), fmt.Sprintf("%.1f", sent/float64(n)),
			fmt.Sprintf("%.1f", delivered/float64(n)), fmt.Sprintf("%.3f", pdr/float64(n)))
	}
	fmt.Println(wt.String())
}

// tracer collects the first N packet receptions across tapped nodes.
type tracer struct {
	limit int
	rows  []sbr6.TapEvent
}

func (t *tracer) record(ev sbr6.TapEvent) {
	if len(t.rows) < t.limit {
		t.rows = append(t.rows, ev)
	}
}
