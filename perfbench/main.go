// Command perfbench times the secure pipeline end to end — CGA keygen,
// secure DAD and name registration, then secure routing under load —
// through the sbr6 facade and the daemon's JSON-RPC protocol only.
//
//	perfbench --workload bootstrap|mobile|daemon --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of one run; with
// --trace 1 it runs the workload untraced and then traced, and prints
// the per-layer CPU attribution, the per-layer operation counts and the
// tracing overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: bootstrap, mobile or daemon")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "measured seconds; sets the window count")
	traced := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload bootstrap|mobile|daemon, --seconds >= 1, --trace 0|1 (%v)\n", err)
		return 2
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	hostInfo := fingerprint()
	steal := startSteal()
	o := &ops{log: stderr}
	windows := w.windows(*seconds)
	var out []metric
	if *traced == 0 {
		p := &pass{w: w, seed: *seed, windows: windows, ops: o}
		if err := p.run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "outputs %s seed=%d digest=%s\n", w.name, *seed, p.outputs())
		out = p.endToEnd(o, stdout)
	} else {
		base := &pass{w: w, seed: *seed, windows: windows, ops: o}
		if err := base.run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (untraced): %v\n", w.name, err)
			return 1
		}
		tp := &pass{w: w, seed: *seed, windows: windows, ops: o, tr: newTracer(), prof: &profiler{}}
		if err := tp.run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 1
		}
		digest, baseDigest := tp.outputs(), base.outputs()
		o.check(digest == baseDigest, "traced outputs differ from untraced: %s vs %s", digest, baseDigest)
		fmt.Fprintf(stdout, "outputs %s seed=%d digest=%s\n", w.name, *seed, digest)
		out = perLayer(tp, base, o, stdout)
		spans := fmt.Sprintf("%s/spans-%s-seed%d.json", outDir, w.name, *seed)
		if err := tp.tr.write(spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "spans written to %s (%d spans)\n", spans, len(tp.tr.spans))
		}
	}
	hostInfo.StealFrac = steal.frac()
	hj, _ := json.Marshal(hostInfo)
	fmt.Fprintf(stdout, "host %s\n", hj)
	printMetrics(stdout, out)

	metrics := make(map[string]value, len(out))
	for _, m := range out {
		v := m.value
		if !o.check(!math.IsNaN(v) && !math.IsInf(v, 0), "metric %s undefined", m.name) {
			v = 0 // JSON has no NaN; the failed check marks the run incorrect
		}
		metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func printMetrics(w io.Writer, ms []metric) {
	sorted := append([]metric(nil), ms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	fmt.Fprintf(w, "%-34s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, m := range sorted {
		fmt.Fprintf(w, "%-34s %16.6g %-6s %d\n", m.name, m.value, m.unit, m.samples)
	}
}

// endToEnd computes the user-visible metrics of an untraced pass.
func (p *pass) endToEnd(o *ops, log io.Writer) []metric {
	tailV, pct, err := tail(p.windowWall)
	o.call("window tail", err)
	n := len(p.windowWall)
	fmt.Fprintf(log, "window_ms.tail is percentile %.4g of %d windows\n", pct, n)
	q, meas := p.q, p.measured
	return []metric{
		{"setup_s", median(p.setupWall), "s", len(p.setupWall)},
		{"setup_cpu_s", median(p.setupCPU), "s", len(p.setupCPU)},
		{"window_ms.p50", median(p.windowWall) * 1e3, "ms", n},
		{"window_ms.tail", tailV * 1e3, "ms", n},
		{"window_cpu_ms", p.measureCPU.Seconds() * 1e3 / float64(n), "ms", n},
		{"peak_heap_mib", median(p.peakHeap) / (1 << 20), "MiB", len(p.peakHeap)},
		{"pdr", float64(meas.delivered) / float64(meas.sent), "ratio", meas.sent},
		{"configured_frac", float64(q.configured) / float64(q.configured+q.dadFailed), "ratio", q.configured + q.dadFailed},
		{"ctrl_bytes_per_delivered", meas.counters["tx.bytes.control"] / float64(meas.delivered), "B", meas.delivered},
		{"snapshot_ms.p50", median(p.snapMs), "ms", len(p.snapMs)},
		{"resume_s", median(p.resumeS), "s", len(p.resumeS)},
	}
}
