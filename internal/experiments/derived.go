package experiments

import (
	"fmt"
	"math"
	"time"

	"sbr6"
	"sbr6/internal/attack"
	"sbr6/internal/cga"
	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/trace"
)

// This file implements the first derived experiments of the index in
// experiments.go: the cost of security vs network size (E1), the
// signature-suite ablation (E2), credit convergence around black holes and
// identity churn (E3), and the DAD collision probability vs hash width
// (E4). Simulation sweeps run through the public facade.

func init() {
	register("E1", "Derived: security overhead vs network size", runE1)
	register("E2", "Derived: signature suite ablation (Ed25519 vs RSA)", runE2)
	register("E3", "Derived: credit convergence and identity churn", runE3)
	register("E4", "Derived: address collision probability vs hash width", runE4)
}

func runE1(opt Options) []*trace.Table {
	sizes := []int{9, 16, 25}
	if opt.Quick {
		sizes = []int{9, 16}
	}
	t := trace.NewTable("E1: overhead and delivery vs network size (grid, 2 corner flows)",
		"nodes", "protocol", "PDR", "latency (s)", "ctrl bytes", "ctrl bytes/delivered", "sign", "verify")
	for _, n := range sizes {
		for _, secure := range []bool{false, true} {
			res := runSpec(opt, gridSpec(opt.Seed, n, secure,
				sbr6.WithFlows(cornerFlows(n, 500*time.Millisecond)...),
			))
			name := "baseline"
			if secure {
				name = "secure"
			}
			perDelivered := math.NaN()
			if res.Delivered > 0 {
				perDelivered = res.ControlBytes / float64(res.Delivered)
			}
			t.Addf(n, name, res.PDR, res.LatencyMean, res.ControlBytes, perDelivered,
				res.CryptoSign, res.CryptoVerify)
		}
	}
	return []*trace.Table{t}
}

func runE2(opt Options) []*trace.Table {
	t := trace.NewTable("E2: signature suite ablation (5-node chain, 1 flow)",
		"suite", "PDR", "ctrl bytes", "RREQ bytes @3 hops", "verify ops", "wall-clock verify us/route").WallClock(5)

	suites := []struct {
		pub sbr6.Suite
		in  identity.Suite
	}{{sbr6.Ed25519, identity.SuiteEd25519}, {sbr6.RSA1024, identity.SuiteRSA1024}}
	for _, suite := range suites {
		res := runSpec(opt, lineSpec(opt.Seed, 5, true,
			sbr6.WithSuite(suite.pub),
			sbr6.WithFlows(sbr6.Flow{From: 1, To: 4, Interval: 500 * time.Millisecond, Size: 64}),
			sbr6.WithDuration(10*time.Second),
		))

		// Wall-clock verification cost of a 3-hop route record (4 sigs).
		id, err := identity.New(suite.in, draw.New(opt.Seed, draw.Key, 0), "")
		if err != nil {
			panic(err)
		}
		msg := []byte("hop attestation probe")
		sig := id.Sign(msg)
		reps := 200
		if opt.Quick {
			reps = 50
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			for v := 0; v < 4; v++ {
				id.Pub.Verify(msg, sig)
			}
		}
		usPerRoute := float64(time.Since(start).Microseconds()) / float64(reps)

		// RREQ size with 3 hop attestations under this suite.
		sigN, pkN := sigSizes(opt.Seed, suite.in)
		rreqBytes := rreqSizeAtHops(3, sigN, pkN)

		t.Add(suite.in.String(), fmt.Sprintf("%.3f", res.PDR),
			trace.FormatFloat(res.ControlBytes), fmt.Sprint(rreqBytes),
			trace.FormatFloat(res.CryptoVerify), fmt.Sprintf("%.1f", usPerRoute))
	}

	note := trace.NewTable("E2b: note", "fact", "value")
	note.Add("simulated time is crypto-agnostic",
		"verification cost appears in wall-clock and byte columns; the DES clock does not model CPU time")
	return []*trace.Table{t, note}
}

func runE3(opt Options) []*trace.Table {
	// Windowed PDR with a central INSIDER black hole: it has a legitimate
	// CGA identity, relays discovery honestly (its attestations verify)
	// and silently drops only the data plane — the adversary the credit
	// mechanism exists for. Credits should recover delivery once probing
	// pins the hole; without credits the source keeps stumbling into it.
	windows := 8
	winSize := 5 * time.Second
	if opt.Quick {
		windows = 6
	}

	t := trace.NewTable("E3a: PDR per 5s window with one central insider black hole (grid 9)",
		"window", "secure w/o credits", "secure+credits")
	results := map[bool]*sbr6.Result{}
	for _, credits := range []bool{false, true} {
		results[credits] = runSpec(opt, gridSpec(opt.Seed, 9, true,
			sbr6.WithCredits(credits),
			sbr6.WithAdversaries(sbr6.BlackHole(4)),
			sbr6.WithFlows(cornerFlows(9, 400*time.Millisecond)...),
			sbr6.WithDuration(time.Duration(windows)*winSize),
			sbr6.WithWindows(winSize),
		))
	}
	for w := 0; w < windows; w++ {
		cells := []string{fmt.Sprintf("%d-%ds", w*5, (w+1)*5)}
		for _, credits := range []bool{false, true} {
			ws := results[credits].Windows
			if w < len(ws) {
				cells = append(cells, fmt.Sprintf("%.3f", ws[w].PDR()))
			} else {
				cells = append(cells, "-")
			}
		}
		t.Add(cells...)
	}

	// Identity churn: a punished black hole that resets its address should
	// not regain preferential treatment, because unknown identities start
	// at the low initial credit.
	churn := trace.NewTable("E3b: identity churn vs low initial credit",
		"metric", "value")
	res := runSpec(opt, gridSpec(opt.Seed, 9, true,
		sbr6.WithAdversaries(sbr6.IdentityChurner(4, 8*time.Second)),
		sbr6.WithFlows(cornerFlows(9, 400*time.Millisecond)...),
		sbr6.WithDuration(30*time.Second),
	))
	churner := res.AdversaryState(4).(*attack.IdentityChurner)
	churn.Add("identity churns", fmt.Sprint(churner.Churns))
	churn.Add("PDR despite churn", fmt.Sprintf("%.3f", res.PDR))
	churn.Add("punishments applied", trace.FormatFloat(res.Metric("credit.punished")))
	churn.Add("probes concluded", trace.FormatFloat(res.Metric("probe.concluded")))
	return []*trace.Table{t, churn}
}

func runE4(opt Options) []*trace.Table {
	// Simulated collision probability among k random CGAs vs the birthday
	// approximation k(k-1)/2^(w+1), at reducible widths.
	t := trace.NewTable("E4: observed address collisions vs birthday bound",
		"bits", "identities", "pairs", "observed collisions", "expected (birthday)")

	src := draw.New(opt.Seed, draw.Key, 0)
	pub := make([]byte, 32)
	src.Read(pub)

	k := 2000
	widths := []int{8, 12, 16, 20, 24}
	if opt.Quick {
		k = 500
		widths = []int{8, 12, 16}
	}
	for _, w := range widths {
		seen := make(map[uint64]int)
		collisions := 0
		for i := 0; i < k; i++ {
			id := cga.TruncatedID(pub, src.Uint64(), w)
			collisions += seen[id]
			seen[id]++
		}
		pairs := float64(k) * float64(k-1) / 2
		expected := pairs / math.Exp2(float64(w))
		t.Add(fmt.Sprint(w), fmt.Sprint(k), fmt.Sprintf("%.0f", pairs),
			fmt.Sprint(collisions), fmt.Sprintf("%.2f", expected))
	}
	// The paper's 64-bit width for perspective.
	pairs := float64(k) * float64(k-1) / 2
	t.Add("64", fmt.Sprint(k), fmt.Sprintf("%.0f", pairs), "0 (by construction of H)",
		fmt.Sprintf("%.2e", pairs/math.Exp2(64)))
	return []*trace.Table{t}
}
