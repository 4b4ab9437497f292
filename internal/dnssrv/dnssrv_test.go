package dnssrv

import (
	"testing"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

func newIdent(t testing.TB, seed int64, name string) *identity.Identity {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, draw.New(seed, draw.Key, 0), name)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func newServer(t *testing.T) (*sim.Simulator, *Server, *identity.Identity) {
	t.Helper()
	s := sim.New()
	dnsID := newIdent(t, 100, "dns")
	srv := New(s, draw.New(1, draw.Protocol, 0), dnsID, DefaultConfig(), nil)
	return s, srv, dnsID
}

func TestPreloadAndLookup(t *testing.T) {
	_, srv, _ := newServer(t)
	ip := ipv6.SiteLocal(0, 0xabc)
	srv.Preload("server.manet", ip)
	got, ok := srv.Lookup("server.manet")
	if !ok || got != ip {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if _, ok := srv.Lookup("missing"); ok {
		t.Fatal("missing name resolved")
	}
	if srv.Names() != 1 {
		t.Fatalf("Names = %d", srv.Names())
	}
}

func TestReverseLookupAndPreloadReplace(t *testing.T) {
	_, srv, _ := newServer(t)
	ip1 := ipv6.SiteLocal(0, 1)
	ip2 := ipv6.SiteLocal(0, 2)
	srv.Preload("svc", ip1)
	if name, ok := srv.ReverseLookup(ip1); !ok || name != "svc" {
		t.Fatalf("ReverseLookup = %q, %v", name, ok)
	}
	// Re-preloading moves the binding and clears the stale reverse entry.
	srv.Preload("svc", ip2)
	if _, ok := srv.ReverseLookup(ip1); ok {
		t.Fatal("stale reverse entry survived re-preload")
	}
	if name, ok := srv.ReverseLookup(ip2); !ok || name != "svc" {
		t.Fatalf("moved ReverseLookup = %q, %v", name, ok)
	}
	if srv.Names() != 1 {
		t.Fatalf("Names = %d, want 1", srv.Names())
	}
}

func TestReverseLookupAfterUpdate(t *testing.T) {
	_, srv, _ := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	host, _ := identity.New(identity.SuiteEd25519, rng, "m")
	srv.Preload("m", host.Addr)
	oldIP, oldRn := host.Addr, host.Rn
	chal := srv.HandleUpdateReq(&wire.UpdateReq{Name: "m"})
	host.Regenerate(rng)
	if res := srv.HandleUpdate(BuildUpdate(host, "m", oldIP, oldRn, chal.Ch)); !res.OK {
		t.Fatal("update rejected")
	}
	if _, ok := srv.ReverseLookup(oldIP); ok {
		t.Fatal("stale reverse entry after update")
	}
	if name, ok := srv.ReverseLookup(host.Addr); !ok || name != "m" {
		t.Fatalf("reverse entry not moved: %q %v", name, ok)
	}
}

func TestOnlineRegistrationCommitsAfterDelay(t *testing.T) {
	s, srv, _ := newServer(t)
	host := newIdent(t, 1, "host-a")
	drep := srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 1, DN: "host-a", Ch: 42})
	if drep != nil {
		t.Fatal("fresh name should not conflict")
	}
	if _, ok := srv.Lookup("host-a"); ok {
		t.Fatal("name committed before the warn window elapsed")
	}
	s.Run()
	ip, ok := srv.Lookup("host-a")
	if !ok || ip != host.Addr {
		t.Fatalf("Lookup after commit = %v, %v", ip, ok)
	}
	if srv.Metrics().Get("dns.registered") != 1 {
		t.Fatal("registration counter missing")
	}
}

func TestFCFSNameConflict(t *testing.T) {
	s, srv, dnsID := newServer(t)
	first := newIdent(t, 1, "printer")
	second := newIdent(t, 2, "printer")

	if srv.HandleAREQ(&wire.AREQ{SIP: first.Addr, Seq: 1, DN: "printer", Ch: 10}) != nil {
		t.Fatal("first registrant rejected")
	}
	// Second host asks for the same name while the first is still pending:
	// FCFS says the first reservation wins.
	drep := srv.HandleAREQ(&wire.AREQ{SIP: second.Addr, Seq: 1, DN: "printer", Ch: 20})
	if drep == nil {
		t.Fatal("conflicting pending registration not objected")
	}
	if err := ndp.ValidateDREP(drep, dnsID.Pub, "printer", 20); err != nil {
		t.Fatalf("DREP does not validate: %v", err)
	}
	s.Run()
	// After commit the name belongs to the first host; a third conflict
	// also draws a DREP.
	third := newIdent(t, 3, "printer")
	if srv.HandleAREQ(&wire.AREQ{SIP: third.Addr, Seq: 1, DN: "printer", Ch: 30}) == nil {
		t.Fatal("committed name not defended")
	}
	ip, _ := srv.Lookup("printer")
	if ip != first.Addr {
		t.Fatal("FCFS violated")
	}
}

func TestIdempotentReRegistration(t *testing.T) {
	s, srv, _ := newServer(t)
	host := newIdent(t, 1, "host")
	srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 1, DN: "host", Ch: 1})
	s.Run()
	if srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 2, DN: "host", Ch: 2}) != nil {
		t.Fatal("re-registration by the same address drew a DREP")
	}
}

func TestPendingChallengeRefreshed(t *testing.T) {
	s, srv, _ := newServer(t)
	host := newIdent(t, 1, "host")
	srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 1, DN: "host", Ch: 1})
	// Same host re-floods (DAD retry) with a fresh challenge before commit.
	if srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 2, DN: "host", Ch: 2}) != nil {
		t.Fatal("same-host re-flood objected")
	}
	// A warn signed for the NEW challenge must now be accepted.
	owner := &identity.Identity{Priv: host.Priv, Pub: host.Pub, Rn: host.Rn, Addr: host.Addr}
	warn := ndp.BuildAREP(owner, host.Addr, 2, nil)
	if !srv.HandleWarnAREP(warn) {
		t.Fatal("warn for refreshed challenge rejected")
	}
	s.Run()
	if _, ok := srv.Lookup("host"); ok {
		t.Fatal("cancelled registration still committed")
	}
}

func TestWarnAREPCancelsPendingRegistration(t *testing.T) {
	s, srv, _ := newServer(t)
	// Attacker tries to register a name for a victim's address; the victim
	// (actual owner of that address) warns the DNS.
	victim := newIdent(t, 5, "")
	srv.HandleAREQ(&wire.AREQ{SIP: victim.Addr, Seq: 1, DN: "stolen", Ch: 77})
	warn := ndp.BuildAREP(victim, victim.Addr, 77, nil)
	if !srv.HandleWarnAREP(warn) {
		t.Fatal("authentic warn rejected")
	}
	s.Run()
	if _, ok := srv.Lookup("stolen"); ok {
		t.Fatal("warned registration committed anyway")
	}
	if srv.Metrics().Get("dns.warn_accepted") != 1 {
		t.Fatal("warn counter missing")
	}
}

func TestForgedWarnCannotCancel(t *testing.T) {
	s, srv, _ := newServer(t)
	host := newIdent(t, 1, "legit")
	srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 1, DN: "legit", Ch: 9})
	// Attacker fabricates a warn for the pending address without the key.
	attacker := newIdent(t, 66, "")
	forged := &wire.AREP{
		SIP: host.Addr,
		Sig: attacker.Sign(wire.SigAREP(host.Addr, 9)),
		PK:  attacker.Pub.Bytes(),
		Rn:  attacker.Rn,
	}
	if srv.HandleWarnAREP(forged) {
		t.Fatal("forged warn accepted")
	}
	s.Run()
	if _, ok := srv.Lookup("legit"); !ok {
		t.Fatal("legitimate registration lost to forged warn")
	}
	if srv.Metrics().Get("dns.warn_rejected") != 1 {
		t.Fatal("rejection counter missing")
	}
}

func TestWarnForUnknownAddressIgnored(t *testing.T) {
	_, srv, _ := newServer(t)
	host := newIdent(t, 1, "")
	if srv.HandleWarnAREP(ndp.BuildAREP(host, host.Addr, 1, nil)) {
		t.Fatal("warn with no pending registration accepted")
	}
}

func TestSignedQueryAnswer(t *testing.T) {
	_, srv, dnsID := newServer(t)
	ip := ipv6.SiteLocal(0, 0xfeed)
	srv.Preload("web.manet", ip)

	ans := srv.HandleQuery(&wire.DNSQuery{Name: "web.manet", Ch: 123})
	if !ans.Found || ans.IP != ip {
		t.Fatalf("answer = %+v", ans)
	}
	if !ValidateAnswer(ans, dnsID.Pub, 123) {
		t.Fatal("authentic answer rejected")
	}
	if ValidateAnswer(ans, dnsID.Pub, 124) {
		t.Fatal("answer validated under wrong challenge (replay!)")
	}
	// Tampered IP must fail.
	ans.IP = ipv6.SiteLocal(0, 0xbad)
	if ValidateAnswer(ans, dnsID.Pub, 123) {
		t.Fatal("tampered answer validated")
	}

	neg := srv.HandleQuery(&wire.DNSQuery{Name: "nope", Ch: 5})
	if neg.Found {
		t.Fatal("missing name found")
	}
	if !ValidateAnswer(neg, dnsID.Pub, 5) {
		t.Fatal("negative answer must also be signed")
	}
}

func TestFakeDNSAnswerRejected(t *testing.T) {
	// Section 4, impersonation of DNS: an attacker without the DNS key
	// cannot produce an acceptable answer.
	_, srv, dnsID := newServer(t)
	srv.Preload("bank.manet", ipv6.SiteLocal(0, 1))
	attacker := newIdent(t, 13, "")
	fake := &wire.DNSAnswer{Name: "bank.manet", IP: attacker.Addr, Found: true}
	fake.Sig = attacker.Sign(wire.SigDNSAnswer(fake.Name, fake.IP, true, 55))
	if ValidateAnswer(fake, dnsID.Pub, 55) {
		t.Fatal("fake DNS answer validated")
	}
}

func TestSecureIPChangeFlow(t *testing.T) {
	s, srv, dnsID := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	host, err := identity.New(identity.SuiteEd25519, rng, "mobile")
	if err != nil {
		t.Fatal(err)
	}
	srv.Preload("mobile", host.Addr)
	oldIP, oldRn := host.Addr, host.Rn

	chal := srv.HandleUpdateReq(&wire.UpdateReq{Name: "mobile"})
	if chal == nil || !ValidateUpdateChal(chal, dnsID.Pub) {
		t.Fatal("challenge missing or unsigned")
	}

	// Host moves to a fresh CGA address (same key) and proves both bindings.
	host.Regenerate(rng)
	upd := BuildUpdate(host, "mobile", oldIP, oldRn, chal.Ch)
	res := srv.HandleUpdate(upd)
	if !res.OK {
		t.Fatal("authentic update rejected")
	}
	if !ValidateUpdateResult(res, dnsID.Pub, chal.Ch) {
		t.Fatal("result signature invalid")
	}
	ip, _ := srv.Lookup("mobile")
	if ip != host.Addr {
		t.Fatal("binding not moved to the new address")
	}
	s.Run()
}

func TestIPChangeByNonOwnerRejected(t *testing.T) {
	_, srv, _ := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	owner, _ := identity.New(identity.SuiteEd25519, rng, "target")
	srv.Preload("target", owner.Addr)

	attacker, _ := identity.New(identity.SuiteEd25519, rng, "")
	chal := srv.HandleUpdateReq(&wire.UpdateReq{Name: "target"})

	// The attacker cannot present a key whose CGA matches the old address.
	forged := &wire.Update{
		Name:  "target",
		OldIP: owner.Addr,
		NewIP: attacker.Addr,
		Rn:    attacker.Rn, // wrong: H(attackerPK, rn) != owner's IID
		NewRn: attacker.Rn,
		PK:    attacker.Pub.Bytes(),
		Sig:   attacker.Sign(wire.SigUpdate(owner.Addr, attacker.Addr, chal.Ch)),
	}
	if res := srv.HandleUpdate(forged); res.OK {
		t.Fatal("hijack update accepted")
	}
	ip, _ := srv.Lookup("target")
	if ip != owner.Addr {
		t.Fatal("binding stolen")
	}
}

func TestUpdateWithoutChallengeRejected(t *testing.T) {
	_, srv, _ := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	host, _ := identity.New(identity.SuiteEd25519, rng, "h")
	srv.Preload("h", host.Addr)
	oldIP, oldRn := host.Addr, host.Rn
	host.Regenerate(rng)
	upd := BuildUpdate(host, "h", oldIP, oldRn, 999) // no challenge issued
	if res := srv.HandleUpdate(upd); res.OK {
		t.Fatal("update without challenge accepted")
	}
}

func TestUpdateChallengeSingleUse(t *testing.T) {
	_, srv, _ := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	host, _ := identity.New(identity.SuiteEd25519, rng, "h")
	srv.Preload("h", host.Addr)
	oldIP, oldRn := host.Addr, host.Rn
	chal := srv.HandleUpdateReq(&wire.UpdateReq{Name: "h"})
	host.Regenerate(rng)
	upd := BuildUpdate(host, "h", oldIP, oldRn, chal.Ch)
	if res := srv.HandleUpdate(upd); !res.OK {
		t.Fatal("first update rejected")
	}
	// Replaying the same signed update must fail: the challenge is spent.
	if res := srv.HandleUpdate(upd); res.OK {
		t.Fatal("replayed update accepted")
	}
}

func TestUpdateReqForUnknownName(t *testing.T) {
	_, srv, _ := newServer(t)
	if srv.HandleUpdateReq(&wire.UpdateReq{Name: "ghost"}) != nil {
		t.Fatal("challenge issued for unknown name")
	}
}

func TestUpdateWrongOldIPRejected(t *testing.T) {
	_, srv, _ := newServer(t)
	rng := draw.New(8, draw.Key, 0)
	host, _ := identity.New(identity.SuiteEd25519, rng, "h")
	srv.Preload("h", ipv6.SiteLocal(0, 0x1)) // bound to something else
	chal := srv.HandleUpdateReq(&wire.UpdateReq{Name: "h"})
	oldIP, oldRn := host.Addr, host.Rn
	host.Regenerate(rng)
	upd := BuildUpdate(host, "h", oldIP, oldRn, chal.Ch)
	if res := srv.HandleUpdate(upd); res.OK {
		t.Fatal("update against mismatched old IP accepted")
	}
}

func TestAREQWithoutNameIsPureDAD(t *testing.T) {
	s, srv, _ := newServer(t)
	host := newIdent(t, 1, "")
	if srv.HandleAREQ(&wire.AREQ{SIP: host.Addr, Seq: 1, Ch: 3}) != nil {
		t.Fatal("nameless AREQ drew a DREP")
	}
	s.RunFor(10 * time.Second)
	if srv.Names() != 0 {
		t.Fatal("nameless AREQ created a binding")
	}
}
