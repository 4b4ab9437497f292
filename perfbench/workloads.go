package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sbr6"
)

// A workload is one fixed shape of the secure pipeline. Everything a run
// feeds the program — placement seed, flows, adversary indices, churn
// picks — comes from the run's seed, so one seed always yields the same
// inputs and the same simulated outputs.
type workload struct {
	name   string
	nodes  int
	flows  int
	shards int           // 0 runs the serial core
	mobile bool          // bounded random walk at up to 5 m/s
	names  bool          // every non-anchor node registers a DNS name during DAD
	audit  time.Duration // audit sweep period; 0 disables it
	attack bool          // 3 insider black holes and 1 RERR spammer
	daemon bool          // drive the session through the JSON-RPC control plane
	// allConfigure makes every node's secure DAD success a checked output.
	allConfigure bool
	// replicates is how many independent networks a run builds one after
	// another, each from its own seed derived from the run's. Pooling
	// their samples averages out what one random topology does to the
	// figures; setup_s is the median of their set-ups.
	replicates int
	// rate is the measured windows per replicate per ten seconds of
	// --seconds. The window count, not a wall-clock deadline, ends the
	// measured phase, so it and the tail percentile it fixes are the same
	// on every host.
	rate int
}

var workloads = []workload{
	{name: "bootstrap", nodes: 1000, flows: 10, names: true, audit: 60 * time.Second, allConfigure: true, replicates: 3, rate: 7},
	{name: "mobile", nodes: 600, flows: 20, shards: 2, mobile: true, attack: true, replicates: 5, rate: 5},
	{name: "daemon", nodes: 400, flows: 40, daemon: true, replicates: 5, rate: 7},
}

// windows returns the measured windows per replicate for a run of the
// given --seconds.
func (w workload) windows(seconds int) int { return max(1, w.rate*seconds/10) }

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Load shape shared by every workload.
const (
	packetInterval = 250 * time.Millisecond // 4 pkt/s per CBR flow
	packetSize     = 64
	bootStagger    = 500 * time.Millisecond
	windowSize     = time.Second
	maxSpeed       = 5 // m/s, bounded random walk
	joinsPerWindow = 2 // daemon: inject and eject this many nodes per window
)

// inputs is everything a run derives from its seed before touching the
// program.
type inputs struct {
	seed  int64
	flows []sbr6.Flow
	advs  []sbr6.Adversary
	// picks chooses which earlier joiners the daemon workload ejects.
	// Ejecting joiners rather than initial nodes keeps the flows' routes
	// intact, so the window work measured is the control plane's and not
	// route repair, which the mobile workload measures.
	picks *rand.Rand
}

// side returns the square's edge for n uniformly placed nodes: 125·√n m
// gives about twelve neighbours at the default 250 m range.
func side(n int) float64 { return 125 * math.Sqrt(float64(n)) }

func makeInputs(w workload, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{seed: seed, picks: rand.New(rand.NewSource(seed ^ 0x5eed))}
	// Node 0 is the DNS anchor; flows and adversaries use the other
	// nodes, each at most once.
	perm := rng.Perm(w.nodes - 1)
	next := 0
	take := func() int { next++; return perm[next-1] + 1 }
	for i := 0; i < w.flows; i++ {
		in.flows = append(in.flows, sbr6.Flow{
			From:     take(),
			To:       take(),
			Interval: packetInterval,
			Size:     packetSize,
			Start:    time.Duration(rng.Int63n(int64(packetInterval))),
		})
	}
	if w.attack {
		for i := 0; i < 3; i++ {
			in.advs = append(in.advs, sbr6.BlackHole(take()))
		}
		in.advs = append(in.advs, sbr6.RERRSpammer(take()))
	}
	return in
}

// options compiles a workload and its inputs into scenario options.
func (w workload) options(in inputs) []sbr6.Option {
	s := side(w.nodes)
	opts := []sbr6.Option{
		sbr6.WithSeed(in.seed),
		sbr6.WithNodes(w.nodes),
		sbr6.WithArea(s, s),
		sbr6.WithPlacement(sbr6.PlaceUniform),
		sbr6.WithFastTimers(),
		sbr6.WithBootPolicy(sbr6.BootPerCell),
		sbr6.WithBootStagger(bootStagger),
		sbr6.WithWindows(windowSize),
		// A one-window cooldown finalizes each window's report one
		// barrier after it closes; a packet still in flight a window
		// after it was sent counts as lost.
		sbr6.WithCooldown(windowSize),
		sbr6.WithFlows(in.flows...),
	}
	if w.shards > 0 {
		opts = append(opts, sbr6.WithShards(w.shards))
	}
	if w.mobile {
		opts = append(opts, sbr6.WithMobility(sbr6.Mobility{MaxSpeed: maxSpeed, Walk: true}))
	}
	if w.names {
		for i := 1; i < w.nodes; i++ {
			opts = append(opts, sbr6.WithName(i, nodeName(i)))
		}
	}
	if w.audit > 0 {
		opts = append(opts, sbr6.WithAuditSweep(w.audit))
	}
	if len(in.advs) > 0 {
		opts = append(opts, sbr6.WithAdversaries(in.advs...))
	}
	return opts
}

func nodeName(i int) string { return fmt.Sprintf("n%d.bench", i) }

func joinName(k int) string { return fmt.Sprintf("j%d.bench", k) }
