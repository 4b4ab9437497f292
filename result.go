package sbr6

import (
	"fmt"
	"time"

	"sbr6/internal/core"
	"sbr6/internal/ipv6"
	"sbr6/internal/scenario"
	"sbr6/internal/trace"
)

// Addr is a 128-bit IPv6 address; the secure protocol binds it to the
// owner's public key through the CGA construction.
type Addr = ipv6.Addr

// Result aggregates one run's measurements.
type Result struct {
	Seed int64

	Configured int // nodes that completed DAD
	DADFailed  int

	Sent      int // measured-window data packets offered
	Delivered int
	PDR       float64 // delivery ratio

	LatencyMean float64 // seconds
	LatencyP95  float64

	ControlBytes float64 // summed over nodes
	DataBytes    float64
	CryptoSign   float64
	CryptoVerify float64

	TxFrames     uint64 // link-layer frames transmitted
	UnicastFails uint64 // unicasts with no link-layer ACK

	PerFlow map[int]FlowResult
	Windows []WindowStat // per-window counts when WithWindows was set

	metrics     *trace.Metrics
	adversaries map[int]core.Behavior
}

// FlowResult is one flow's delivery outcome.
type FlowResult struct {
	Sent, Delivered int
}

// WindowStat is one time bucket of the measurement phase. Deliveries are
// attributed to the window the packet was sent in, so window PDRs are well
// defined.
type WindowStat struct {
	Start     time.Duration // offset from measurement start
	Sent      int
	Delivered int
}

// PDR returns the window's delivery ratio (0 when nothing was sent).
func (w WindowStat) PDR() float64 {
	if w.Sent == 0 {
		return 0
	}
	return float64(w.Delivered) / float64(w.Sent)
}

// Metric returns a merged per-node counter by name (e.g. "rerr.accepted",
// "discovery.attempts", "tx.bytes.control"); unknown names read 0.
func (r *Result) Metric(name string) float64 { return r.metrics.Get(name) }

// MetricMean returns the mean of a merged sample series (e.g.
// "e2e.latency_s", "dad.latency_s").
func (r *Result) MetricMean(name string) float64 { return r.metrics.Mean(name) }

// MetricQuantile returns the q-quantile of a merged sample series.
func (r *Result) MetricQuantile(name string, q float64) float64 {
	return r.metrics.Quantile(name, q)
}

// MetricNames lists the merged counter names in sorted order.
func (r *Result) MetricNames() []string { return r.metrics.CounterNames() }

// AdversaryState returns the attack state a Runner's run left at a node
// (for example *attack.BlackHole with its drop counters), or nil for an
// honest node. A Session's Query carries none: read a session's attacker
// through its node's Unwrap().Behavior. In-module experiments type-assert
// on it; its concrete types live in internal packages.
func (r *Result) AdversaryState(node int) any { return r.adversaries[node] }

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("seed=%d pdr=%.3f (%d/%d) latency=%.3fs ctrl=%.0fB data=%.0fB sign=%.0f verify=%.0f dad=%d/%d",
		r.Seed, r.PDR, r.Delivered, r.Sent, r.LatencyMean, r.ControlBytes, r.DataBytes,
		r.CryptoSign, r.CryptoVerify, r.Configured, r.Configured+r.DADFailed)
}

// publicResult converts the internal aggregate.
func publicResult(seed int64, res *scenario.Result) *Result {
	out := &Result{
		Seed:         seed,
		Configured:   res.Configured,
		DADFailed:    res.DADFailed,
		Sent:         res.Sent,
		Delivered:    res.Delivered,
		PDR:          res.PDR,
		LatencyMean:  res.LatencyMean,
		LatencyP95:   res.LatencyP95,
		ControlBytes: res.ControlBytes,
		DataBytes:    res.DataBytes,
		CryptoSign:   res.CryptoSign,
		CryptoVerify: res.CryptoVerify,
		TxFrames:     res.Link.TxFrames,
		UnicastFails: res.Link.UnicastFails,
		PerFlow:      make(map[int]FlowResult, len(res.PerFlow)),
		metrics:      res.Metrics,
	}
	for fi, fr := range res.PerFlow {
		out.PerFlow[fi] = FlowResult{Sent: fr.Sent, Delivered: fr.Delivered}
	}
	for _, w := range res.Windows {
		out.Windows = append(out.Windows, publicWindow(w))
	}
	return out
}

// scenarioWindow keeps the internal type out of runner.go's signatures.
type scenarioWindow = scenario.WindowStat

func publicWindow(w scenario.WindowStat) WindowStat {
	return WindowStat{Start: w.Start, Sent: w.Sent, Delivered: w.Delivered}
}
