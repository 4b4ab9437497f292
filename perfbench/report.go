package main

import (
	"fmt"
	"io"
	"sort"
)

// perLayer attributes the traced pass's CPU profiles to layers, prints
// the per-phase tables and returns the per-layer metrics. Counts come
// from the traced pass (they equal the untraced pass's, which the digest
// check proves); runtime figures come from the untraced pass, which
// profiling does not disturb.
func perLayer(tp, base *pass, o *ops, w io.Writer) []metric {
	o.check(tp.prof.err == nil, "cpu profile: %v", tp.prof.err)
	windows := float64(tp.totalWindows())
	setups := float64(len(tp.setupWall))
	phases := map[string]attribution{}
	for _, phase := range []string{"setup", "measure", "resume"} {
		a, err := tp.prof.attributePhase(phase)
		if !o.call("attribute "+phase+" profiles", err) {
			continue
		}
		phases[phase] = a
		printPhase(w, phase, a, tp)
	}
	var out []metric
	for _, l := range layers {
		out = append(out,
			metric{l + ".self_ms_per_window", float64(phases["measure"].layers[l]) / 1e6 / windows, "ms", int(windows)},
			metric{l + ".setup_self_s", float64(phases["setup"].layers[l]) / 1e9 / setups, "s", int(setups)})
	}

	c := tp.measured.counters
	n := tp.measured.reports
	per := func(names ...string) float64 {
		sum := 0.0
		for _, name := range names {
			sum += c[name]
		}
		return sum / float64(n)
	}
	txPerWindow := float64(tp.q.txFrames) / windows
	rt, bw := base.rt, float64(base.totalWindows())
	return append(out,
		metric{"radio.tx_frames_per_window", txPerWindow, "count", int(windows)},
		metric{"radio.rx_per_tx", per("rx.frames") / txPerWindow, "ratio", n},
		metric{"radio.unicast_fails_per_window", float64(tp.q.unicastFails) / windows, "count", int(windows)},
		metric{"wire.decodes_per_window", per("rx.frames"), "count", n},
		metric{"wire.first_copies_per_window", per("rx.AREQ", "rx.RREQ", "rx.AADV"), "count", n},
		metric{"wire.bytes_encoded_per_window", per("tx.bytes.total"), "B", n},
		metric{"identity.signs_per_window", per("crypto.sign"), "count", n},
		metric{"identity.verifies_per_window", per("crypto.verify"), "count", n},
		metric{"ndp.dad_rounds", tp.all.counters["dad.rounds"], "count", tp.all.reports},
		metric{"ndp.first_areq_copies", tp.all.counters["rx.AREQ"], "count", tp.all.reports},
		metric{"core.discoveries_per_window", per("discovery.attempts"), "count", n},
		metric{"core.rreq_relays_per_window", per("fwd.RREQ"), "count", n},
		metric{"core.data_relays_per_window", per("fwd.relayed"), "count", n},
		metric{"core.rerr_per_window", per("rerr.sent"), "count", n},
		metric{"audit.advs_per_window", per("audit.adv_sent"), "count", n},
		metric{"shard.cpu_per_wall", base.advCPU.Seconds() / base.advWall.Seconds(), "ratio", int(bw)},
		metric{"daemon.rpc_ms.p50", median(base.callMs), "ms", len(base.callMs)},
		metric{"daemon.snapshot_bytes", median(tp.snapBytes), "B", len(tp.snapBytes)},
		metric{"gc.cpu_ms_per_window", rt.gcCPU * 1e3 / bw, "ms", int(bw)},
		metric{"gc.cycles_per_window", float64(rt.gcCycles) / bw, "count", int(bw)},
		metric{"gc.alloc_mib_per_window", float64(rt.allocBytes) / (1 << 20) / bw, "MiB", int(bw)},
		metric{"gc.allocs_per_window", float64(rt.allocObjs) / bw, "count", int(bw)},
		metric{"tracing.overhead_window_cpu_ms", (tp.measureCPU - base.measureCPU).Seconds() * 1e3 / windows, "ms", int(windows)},
		metric{"tracing.overhead_setup_cpu_s", median(tp.setupCPU) - median(base.setupCPU), "s", int(setups)},
	)
}

// printPhase prints one phase's per-layer table: self time, its share of
// the phase's profiled CPU, and the process CPU the phase took.
func printPhase(w io.Writer, phase string, a attribution, tp *pass) {
	var procCPU float64
	switch phase {
	case "setup":
		for _, s := range tp.setupCPU {
			procCPU += s
		}
	case "measure":
		procCPU = tp.measureCPU.Seconds()
	}
	fmt.Fprintf(w, "\n%s phase: profiled CPU %.3f s", phase, float64(a.total)/1e9)
	if procCPU > 0 {
		fmt.Fprintf(w, " of %.3f s process CPU", procCPU)
	}
	fmt.Fprintf(w, "\n%-12s %12s %7s\n", "layer", "self_ms", "share")
	names := make([]string, 0, len(a.layers))
	for l := range a.layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return a.layers[names[i]] > a.layers[names[j]] })
	for _, l := range names {
		fmt.Fprintf(w, "%-12s %12.1f %6.2f%%\n", l, float64(a.layers[l])/1e6, 100*float64(a.layers[l])/float64(a.total))
	}
	spans := make([]string, 0, len(a.spans))
	for s := range a.spans {
		spans = append(spans, s)
	}
	sort.Strings(spans)
	fmt.Fprintf(w, "by span:")
	for _, s := range spans {
		fmt.Fprintf(w, " %s=%.1fms", s, float64(a.spans[s])/1e6)
	}
	fmt.Fprintln(w)
}
