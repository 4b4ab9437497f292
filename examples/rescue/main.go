// Rescue: the paper's disaster-relief motivation.
//
// Twenty responders walk a 900 x 900 m operations area under random
// waypoint mobility. The command post (node 0) runs the DNS server with a
// pre-provisioned name, so no responder needs any configuration beyond the
// DNS public key. Teams stream status reports to the command post while
// links break and reform; DSR route maintenance (signed RERRs) and
// re-discovery keep the reports flowing.
//
// Run with: go run ./examples/rescue
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
	"time"

	"sbr6"
)

func main() {
	// Four field teams report to the command post every 2 seconds; two
	// teams also exchange coordination traffic directly.
	flows := []sbr6.Flow{
		{From: 4, To: 0, Interval: 2 * time.Second, Size: 96},
		{From: 9, To: 0, Interval: 2 * time.Second, Size: 96},
		{From: 14, To: 0, Interval: 2 * time.Second, Size: 96},
		{From: 19, To: 0, Interval: 2 * time.Second, Size: 96},
		{From: 4, To: 9, Interval: 3 * time.Second, Size: 48},
		{From: 14, To: 19, Interval: 3 * time.Second, Size: 48},
	}

	sc, err := sbr6.NewScenario(
		sbr6.WithSeed(7),
		sbr6.WithNodes(20),
		// ~900x900 m keeps the walking deployment connected (mean degree
		// ~6 at a 250 m radio range); sparser areas strand responders.
		sbr6.WithArea(900, 900),
		sbr6.WithPlacement(sbr6.PlaceUniform),
		sbr6.WithMobility(sbr6.Mobility{
			MinSpeed: 0.5, // walking pace
			MaxSpeed: 2.5,
			Pause:    5 * time.Second,
		}),
		sbr6.WithDADTimeout(500*time.Millisecond),
		sbr6.WithDNSCommitDelay(500*time.Millisecond),
		sbr6.WithPreload("command-post", 0),
		sbr6.WithWarmup(2*time.Second),
		sbr6.WithDuration(60*time.Second),
		sbr6.WithCooldown(5*time.Second),
		sbr6.WithFlows(flows...),
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&sbr6.Runner{}).Run(context.Background(), sc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("rescue operation, 60 s of mobile reporting:")
	fmt.Printf("  responders configured:  %d/%d\n", res.Configured, sc.Nodes())
	fmt.Printf("  reports delivered:      %d/%d (%.1f%%)\n", res.Delivered, res.Sent, 100*res.PDR)
	fmt.Printf("  mean report latency:    %.1f ms\n", res.LatencyMean*1000)
	fmt.Printf("  route errors handled:   %.0f accepted, %.0f routes invalidated\n",
		res.Metric("rerr.accepted"), res.Metric("route.invalidated"))
	fmt.Printf("  route discoveries:      %.0f attempts, %.0f installs\n",
		res.Metric("discovery.attempts"), res.Metric("route.installed"))
	fmt.Printf("  control overhead:       %.0f bytes (%.1f%% of all bytes)\n",
		res.ControlBytes, 100*res.ControlBytes/(res.ControlBytes+res.DataBytes))
	fmt.Printf("  signatures/verifies:    %.0f / %.0f\n", res.CryptoSign, res.CryptoVerify)
	for _, fi := range slices.Sorted(maps.Keys(res.PerFlow)) {
		fr := res.PerFlow[fi]
		fmt.Printf("  flow %d: %d/%d delivered\n", fi, fr.Delivered, fr.Sent)
	}
}
