package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// maxProcs caps the scheduler at two busy threads, the benchmark's
// reference machine, so figures from bigger hosts stay comparable.
const maxProcs = 2

// cpuTime returns the process's CPU time so far, user plus system, over
// every thread.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clock pairs wall and CPU time so every timed interval has a CPU twin.
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock { return clock{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall and CPU time elapsed since c.
func (c clock) since() (wall, cpu time.Duration) {
	return time.Since(c.wall), cpuTime() - c.cpu
}

// runtimeStats reads the runtime counters the benchmark reports.
type runtimeStats struct {
	gcCPU      float64 // seconds of GC CPU, as the runtime estimates it
	gcCycles   uint64
	allocBytes uint64
	allocObjs  uint64
	liveHeap   uint64 // heap marked live by the last GC
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() runtimeStats {
	metrics.Read(runtimeSamples)
	u := func(i int) uint64 {
		if runtimeSamples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return runtimeSamples[i].Value.Uint64()
	}
	var gc float64
	if runtimeSamples[0].Value.Kind() == metrics.KindFloat64 {
		gc = runtimeSamples[0].Value.Float64()
	}
	return runtimeStats{gcCPU: gc, gcCycles: u(1), allocBytes: u(2), allocObjs: u(3), liveHeap: u(4)}
}

// host is the fingerprint printed beside every run.
type host struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	StealFrac  float64 `json:"steal_frac"` // host CPU time stolen from this machine during the run
}

func fingerprint() host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the machine-wide steal and total tick counts from
// /proc/stat; ok is false where the file is missing.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already inside user, so only the first eight count.
	for i, s := range fields[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of machine CPU time stolen by the
// hypervisor between its start and a later read.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}
