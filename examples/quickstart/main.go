// Quickstart: the smallest end-to-end use of the library.
//
// It declares a five-node chain with the functional-options builder (node
// 0 is the DNS server, the network's trust anchor), serves it as a live
// session that bootstraps every node through secure duplicate address
// detection and registers a domain name, resolves that name through the
// in-MANET DNS, and delivers a few data packets over a securely
// discovered multi-hop route.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"sbr6"
)

// window is the step the session advances by.
const window = 100 * time.Millisecond

func main() {
	sc, err := sbr6.NewScenario(
		sbr6.WithNodes(5),
		sbr6.WithPlacement(sbr6.PlaceLine), // dns - n1 - n2 - n3 - n4, 200 m apart
		sbr6.WithDADTimeout(500*time.Millisecond),
		sbr6.WithDNSCommitDelay(500*time.Millisecond),
		sbr6.WithName(4, "sensor-hub"), // node 4 registers a name
		sbr6.WithWarmup(time.Second),   // let the registration commit
		sbr6.WithWindows(window),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: secure bootstrap. Every node floods an AREQ, waits for
	// objections, and ends up with a unique CGA-bound site-local address.
	sess, err := sbr6.Serve(sc)
	if err != nil {
		log.Fatal(err)
	}
	advance := func(d time.Duration) {
		if err := sess.Advance(int(d / window)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("bootstrap: %d/%d nodes configured\n", sess.Configured(), sess.NodeCount())
	for i := 0; i < sess.NodeCount(); i++ {
		n := sess.Node(i)
		fmt.Printf("  node %d: %-28s name=%q\n", i, n.Addr(), n.Name())
	}

	// Phase 2: resolve the hub's name with a challenge-bound signed lookup.
	var hub sbr6.Addr
	sess.Node(1).Resolve("sensor-hub", func(a sbr6.Addr, ok bool) {
		if !ok {
			log.Fatal("resolve failed")
		}
		hub = a
	})
	advance(5 * time.Second)
	fmt.Printf("resolved sensor-hub -> %s (signed by the DNS, bound to our challenge)\n", hub)

	// Phase 3: send data. Route discovery carries per-hop signed identity
	// attestations; the destination verifies every hop before answering.
	received := 0
	sess.Node(4).OnData(func(src sbr6.Addr, payload []byte) {
		received++
		fmt.Printf("  hub got %q from %s\n", payload, src)
	})
	for i := 0; i < 3; i++ {
		sess.Node(1).SendData(hub, []byte(fmt.Sprintf("reading-%d", i)))
		advance(300 * time.Millisecond)
	}
	advance(5 * time.Second)

	relays, _ := sess.Node(1).Route(hub)
	total := sess.Query()
	fmt.Printf("delivered %d/3 over a %d-hop verified route\n", received, relays+1)
	fmt.Printf("crypto: %.0f signatures, %.0f verifications across the network\n",
		total.Metric("crypto.sign"), total.Metric("crypto.verify"))
}
