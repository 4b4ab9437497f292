package sbr6

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"sbr6/internal/scenario"
)

// Runner executes scenarios. Each discrete-event simulation stays
// single-threaded and deterministic; RunBatch fans seed-replicates out
// across a worker pool, so a batch's per-seed results are byte-identical
// to serial runs of the same seeds.
//
// A replicate is a Session run to its end: Serve, then Advance through
// ⌈Duration/W⌉ measured windows and ⌈Cooldown/W⌉ cooldown windows, where
// W is the window size (one second without WithWindows), then Query. Its
// Result equals that session's Query, with the measured windows in
// Windows when WithWindows was set.
type Runner struct {
	// Workers bounds the pool size for RunBatch; <= 0 means GOMAXPROCS.
	Workers int
	// Observer, when set, receives streaming progress (run start/finish
	// and per-window stats) during execution. Calls are serialized.
	Observer Observer
}

// Seeds builds a seed list from explicit values, for
// RunBatch(ctx, sc, Seeds(1, 2, 3)).
func Seeds(vals ...int64) []int64 { return vals }

// SeedRange returns n consecutive seeds starting at base.
func SeedRange(base int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+int64(i))
	}
	return out
}

// Run executes one full experiment with the scenario's default seed. It
// checks ctx every 100 ms of virtual time during the bootstrap and
// between windows after it.
func (r *Runner) Run(ctx context.Context, sc *Scenario) (*Result, error) {
	return r.runOne(ctx, sc, sc.Seed(), r.observer())
}

// RunBatch executes one replicate per seed across the worker pool and
// aggregates the results. Replicates that finish before ctx is cancelled
// are kept; the first error (including ctx.Err()) is reported alongside
// whatever aggregate could be formed.
func (r *Runner) RunBatch(ctx context.Context, sc *Scenario, seeds []int64) (*BatchResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("RunBatch: no seeds: %w", ErrOption)
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	obs := r.observer()

	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				results[i], errs[i] = r.runOne(ctx, sc, seeds[i], obs)
			}
		}()
	}
	for i := range seeds {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// Collapse the per-replicate cancellations into one wrapped error so a
	// cancelled 2000-seed batch does not report 2000 identical lines.
	var failures []error
	cancelled := 0
	for _, e := range errs {
		switch {
		case e == nil:
		case errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded):
			cancelled++
		default:
			failures = append(failures, e)
		}
	}
	if cancelled > 0 {
		failures = append(failures, fmt.Errorf("%d of %d replicates not run: %w", cancelled, len(seeds), ctx.Err()))
	}
	batch := aggregate(seeds, results)
	return batch, errors.Join(failures...)
}

// observer wraps the Runner's Observer for concurrent use by the batch
// workers; nil when none is set.
func (r *Runner) observer() Observer {
	if r.Observer == nil {
		return nil
	}
	return &syncObserver{obs: r.Observer}
}

// runOne builds and runs a single seed-replicate.
func (r *Runner) runOne(ctx context.Context, spec *Scenario, seed int64, obs Observer) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc, advs, err := spec.instantiate(seed)
	if err != nil {
		return nil, err
	}
	lv := scenario.NewLive(sc)
	var windows []WindowReport
	if spec.cfg.WindowSize > 0 {
		lv.OnWindow = func(w WindowReport) {
			windows = append(windows, w)
			if obs != nil {
				obs.Window(seed, w)
			}
		}
	}
	if obs != nil {
		obs.RunStarted(seed)
	}
	out := lv.Run(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := publicResult(seed, out)
	res.Windows = windows
	res.adversaries = advs
	if obs != nil {
		obs.RunFinished(seed, res)
	}
	return res, nil
}

// Stat summarizes one metric over a batch's replicates.
type Stat struct {
	Mean   float64
	Stddev float64 // sample standard deviation
	CI95   float64 // half-width of the normal-approximation 95% interval
	Min    float64
	Max    float64
	N      int
}

// String renders "mean ± ci95".
func (s Stat) String() string { return fmt.Sprintf("%.3f ± %.3f", s.Mean, s.CI95) }

// summarize computes a Stat over the finite samples; NaN observations
// (the latency of a replicate that delivered nothing) don't contribute,
// and N reports how many did.
func summarize(xs []float64) Stat {
	finite := xs[:0:0]
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			finite = append(finite, x)
		}
	}
	xs = finite
	if len(xs) == 0 {
		return Stat{}
	}
	st := Stat{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		st.Min = math.Min(st.Min, x)
		st.Max = math.Max(st.Max, x)
	}
	st.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - st.Mean
			ss += d * d
		}
		st.Stddev = math.Sqrt(ss / float64(len(xs)-1))
		st.CI95 = 1.96 * st.Stddev / math.Sqrt(float64(len(xs)))
	}
	return st
}

// BatchResult aggregates a multi-seed batch. Results holds the per-seed
// outcomes in seed order (nil where a replicate failed or was cancelled);
// the Stat fields summarize the successful replicates.
type BatchResult struct {
	Seeds   []int64
	Results []*Result

	PDR          Stat
	LatencyMean  Stat
	LatencyP95   Stat
	ControlBytes Stat
	DataBytes    Stat
	CryptoSign   Stat
	CryptoVerify Stat
	Configured   Stat
	Sent         Stat
	Delivered    Stat
}

// Of summarizes any per-result quantity over the successful replicates.
func (b *BatchResult) Of(f func(*Result) float64) Stat {
	var xs []float64
	for _, r := range b.Results {
		if r != nil {
			xs = append(xs, f(r))
		}
	}
	return summarize(xs)
}

// Metric summarizes a merged per-node counter over the replicates.
func (b *BatchResult) Metric(name string) Stat {
	return b.Of(func(r *Result) float64 { return r.Metric(name) })
}

// Completed returns how many replicates produced a result.
func (b *BatchResult) Completed() int {
	n := 0
	for _, r := range b.Results {
		if r != nil {
			n++
		}
	}
	return n
}

// String renders the batch's headline statistics.
func (b *BatchResult) String() string {
	return fmt.Sprintf("batch n=%d/%d pdr=%s latency=%s ctrl=%s",
		b.Completed(), len(b.Seeds), b.PDR, b.LatencyMean, b.ControlBytes)
}

func aggregate(seeds []int64, results []*Result) *BatchResult {
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool { return seeds[order[a]] < seeds[order[c]] })
	b := &BatchResult{}
	for _, i := range order {
		b.Seeds = append(b.Seeds, seeds[i])
		b.Results = append(b.Results, results[i])
	}
	b.PDR = b.Of(func(r *Result) float64 { return r.PDR })
	// A replicate that delivered nothing has no latency; it reads NaN here
	// so the latency Stats skip it.
	latency := func(f func(*Result) float64) func(*Result) float64 {
		return func(r *Result) float64 {
			if r.Delivered == 0 {
				return math.NaN()
			}
			return f(r)
		}
	}
	b.LatencyMean = b.Of(latency(func(r *Result) float64 { return r.LatencyMean }))
	b.LatencyP95 = b.Of(latency(func(r *Result) float64 { return r.LatencyP95 }))
	b.ControlBytes = b.Of(func(r *Result) float64 { return r.ControlBytes })
	b.DataBytes = b.Of(func(r *Result) float64 { return r.DataBytes })
	b.CryptoSign = b.Of(func(r *Result) float64 { return r.CryptoSign })
	b.CryptoVerify = b.Of(func(r *Result) float64 { return r.CryptoVerify })
	b.Configured = b.Of(func(r *Result) float64 { return float64(r.Configured) })
	b.Sent = b.Of(func(r *Result) float64 { return float64(r.Sent) })
	b.Delivered = b.Of(func(r *Result) float64 { return float64(r.Delivered) })
	return b
}
