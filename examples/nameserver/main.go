// Nameserver: the paper's public-server scenario (Section 3.2).
//
// An outdoor event runs a public web server whose (name, address) binding
// was placed at the DNS before the network formed — so impersonating it is
// impossible. A client securely resolves the name and talks to the server.
// An attacker then tries two takeovers: answering lookups with a forged
// DNS reply, and re-binding the server's name to its own address via the
// challenge-based update protocol. Both fail. Finally the REAL server
// moves to a fresh CGA address and re-binds legitimately, proving it holds
// the key behind both the old and new addresses.
//
// The scenario itself is declared and driven through the public facade;
// the hand-forged protocol messages at the end reach into internal
// packages, which only in-repo code can do.
//
// Run with: go run ./examples/nameserver
package main

import (
	"fmt"
	"log"
	"time"

	"sbr6"
	"sbr6/internal/dnssrv"
	"sbr6/internal/wire"
)

// window is the step the session advances by.
const window = 200 * time.Millisecond

func main() {
	sc, err := sbr6.NewScenario(
		sbr6.WithSeed(3),
		sbr6.WithNodes(6),
		sbr6.WithPlacement(sbr6.PlaceLine),
		sbr6.WithDADTimeout(500*time.Millisecond),
		sbr6.WithDNSCommitDelay(500*time.Millisecond),
		sbr6.WithName(2, "shop.event"), // node 2 runs the server
		sbr6.WithPreload("www.event", 2),
		sbr6.WithWarmup(time.Second),
		sbr6.WithWindows(window),
	)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := sbr6.Serve(sc)
	if err != nil {
		log.Fatal(err)
	}
	advance := func(d time.Duration) {
		if err := sess.Advance(int(d / window)); err != nil {
			log.Fatal(err)
		}
	}
	server, client, attacker := sess.Node(2), sess.Node(4), sess.Node(3)
	dns := sess.Node(0).Unwrap().DNS()

	// 1. Secure lookup of the pre-provisioned name.
	var serverAddr sbr6.Addr
	client.Resolve("www.event", func(a sbr6.Addr, ok bool) {
		if !ok {
			log.Fatal("resolve failed")
		}
		serverAddr = a
	})
	advance(5 * time.Second)
	fmt.Printf("client resolved www.event -> %s (matches server: %v)\n",
		serverAddr, serverAddr == server.Addr())

	// 2. Client talks to the server over a verified route.
	served := 0
	server.OnData(func(src sbr6.Addr, payload []byte) { served++ })
	for i := 0; i < 3; i++ {
		client.SendData(serverAddr, []byte("GET /"))
		advance(200 * time.Millisecond)
	}
	advance(4 * time.Second)
	fmt.Printf("server handled %d/3 requests\n", served)

	// 3. Attack A: the attacker tries to hijack the binding through the
	// challenge-based update protocol. It cannot present a key whose CGA
	// matches the server's address, so the DNS refuses.
	atkIdent := attacker.Unwrap().Identity()
	chal := dns.HandleUpdateReq(&wire.UpdateReq{Name: "www.event"})
	forged := &wire.Update{
		Name:  "www.event",
		OldIP: server.Addr(),
		NewIP: attacker.Addr(),
		Rn:    atkIdent.Rn,
		NewRn: atkIdent.Rn,
		PK:    atkIdent.Pub.Bytes(),
		Sig:   atkIdent.Sign(wire.SigUpdate(server.Addr(), attacker.Addr(), chal.Ch)),
	}
	verdict := dns.HandleUpdate(forged)
	fmt.Printf("attacker re-binding attempt accepted: %v\n", verdict.OK)

	// 4. Attack B is structural: a forged DNS answer cannot carry the DNS
	// signature over the client's challenge, as the S1 experiment measures
	// network-wide. Here we just show the local check.
	fake := &wire.DNSAnswer{Name: "www.event", IP: attacker.Addr(), Found: true,
		Sig: atkIdent.Sign(wire.SigDNSAnswer("www.event", attacker.Addr(), true, 99))}
	fmt.Printf("forged DNS answer validates: %v\n",
		dnssrv.ValidateAnswer(fake, dns.PublicKey(), 99))

	// 5. The real server moves to a fresh address and re-binds — allowed,
	// because it proves ownership of the key behind both addresses.
	oldAddr := server.Addr()
	var rebound bool
	server.RebindAddress(func(ok bool) { rebound = ok })
	advance(8 * time.Second)
	newAddr, _ := dns.Lookup("shop.event")
	fmt.Printf("server re-bound %s -> %s (ok=%v, address changed=%v)\n",
		oldAddr, server.Addr(), rebound, server.Addr() != oldAddr && newAddr == server.Addr())
}
