package core

import (
	"bytes"
	"testing"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// relayRig is one configured node, handed frames directly, with a
// listener in range that hears what it transmits.
type relayRig struct {
	s     *sim.Simulator
	relay *Node
	heard [][]byte // copies of the frames the listener received, when recording
}

func newRelayRig(t testing.TB, cfg Config, record bool) *relayRig {
	t.Helper()
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig(), 0, nil)
	ident, err := identity.New(cfg.Suite, draw.New(42, draw.Key, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	rig := &relayRig{s: s, relay: New(NewRegion(s, medium), 0, ident, ident.Pub, cfg, draw.New(43, draw.Protocol, 0), nil)}
	rig.relay.StartConfigured()
	medium.AddNode(0, func(sim.Time) geom.Point { return geom.Point{} }, 0, rig.relay)
	medium.AddNode(1, func(sim.Time) geom.Point { return geom.Point{X: 100} }, 0, radio.HandlerFunc(func(_ radio.NodeID, b []byte) {
		if record {
			rig.heard = append(rig.heard, append([]byte(nil), b...))
		}
	}))
	return rig
}

var (
	relayOrigin = ipv6.SiteLocal(0, 0x0a0a)
	relayTarget = ipv6.SiteLocal(0, 0x0b0b)
	relayRoute  = []ipv6.Addr{ipv6.SiteLocal(0, 0x0c0c), ipv6.SiteLocal(0, 0x0d0d)}
)

// A node that only relays an AuditAdv or an AREQ splices the received
// bytes: no decoded message, record copy, packet, closure or counter
// name. The simulator is drained after every frame so the medium's frame
// and job pools recycle. Each frame is a new flood, and the region's flood
// table records it without allocating but when an arena or the node's
// seen-set ring doubles (a handful of times in the run), below
// AllocsPerRun's whole-number average.
func TestRelayOnlyAllocatesNothing(t *testing.T) {
	floods := []struct {
		counter string
		msg     func(seq uint32) wire.Message
	}{
		{"tx.AADV", func(seq uint32) wire.Message {
			return &wire.AuditAdv{SIP: relayOrigin, Seq: seq, Ch: 7, RR: relayRoute[:1],
				Sig: make([]byte, 64), PK: make([]byte, 32), Rn: 3}
		}},
		{"tx.AREQ", func(seq uint32) wire.Message {
			return &wire.AREQ{SIP: relayOrigin, Seq: seq, DN: "host", Ch: 9, RR: relayRoute[:1]}
		}},
	}
	const runs = 200
	for _, fl := range floods {
		rig := newRelayRig(t, DefaultConfig(), false)
		frames := make([][]byte, runs+1) // AllocsPerRun adds one warm-up call
		for i := range frames {
			frames[i] = wire.Encode(&wire.Packet{Src: relayOrigin, Dst: ipv6.AllNodes, TTL: 16, Msg: fl.msg(uint32(i + 1))})
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			rig.relay.Deliver(1, frames[next])
			next++
			rig.s.Run()
		})
		if got := rig.relay.Metrics().Get(fl.counter); got != runs+1 {
			t.Fatalf("%s = %v, want every one of the %d frames relayed", fl.counter, got, runs+1)
		}
		if allocs != 0 {
			t.Errorf("relaying a fresh frame (%s) allocates %v times, want 0", fl.counter, allocs)
		}
	}
}

// A relay rebroadcasts a flooded request under the canonical flood header
// — Src kept, Dst AllNodes, TTL-1, Hop 0, no source route — whatever
// header it arrived with: each relayed frame must equal Encode of the
// packet the decode-and-re-encode relay built.
func TestFloodRelayHeaderIsCanonical(t *testing.T) {
	srcHop := wire.HopAttestation{IP: relayRoute[0], Sig: bytes.Repeat([]byte{1}, 64), PK: bytes.Repeat([]byte{2}, 32), Rn: 5}
	for _, secure := range []bool{true, false} {
		rig := newRelayRig(t, fastConfig(secure), true)
		relay := rig.relay.Identity()
		hop := wire.HopAttestation{IP: relay.Addr}
		if secure {
			hop = wire.HopAttestation{IP: relay.Addr, Sig: relay.Sign(wire.SigHop(relay.Addr, 3)), PK: relay.Pub.Bytes(), Rn: relay.Rn}
		}
		cases := []struct {
			in, out wire.Message
		}{
			{&wire.AREQ{SIP: relayOrigin, Seq: 1, DN: "host", Ch: 9, RR: relayRoute[:1]},
				&wire.AREQ{SIP: relayOrigin, Seq: 1, DN: "host", Ch: 9, RR: []ipv6.Addr{relayRoute[0], relay.Addr}}},
			{&wire.AuditAdv{SIP: relayOrigin, Seq: 2, Ch: 7, RR: relayRoute[:1], Sig: []byte{3}, PK: []byte{4}, Rn: 6},
				&wire.AuditAdv{SIP: relayOrigin, Seq: 2, Ch: 7, RR: []ipv6.Addr{relayRoute[0], relay.Addr}, Sig: []byte{3}, PK: []byte{4}, Rn: 6}},
			{&wire.RREQ{SIP: relayOrigin, DIP: relayTarget, Seq: 3, SRR: []wire.HopAttestation{srcHop}, SrcSig: []byte{7}, SPK: []byte{8}, Srn: 9},
				&wire.RREQ{SIP: relayOrigin, DIP: relayTarget, Seq: 3, SRR: []wire.HopAttestation{srcHop, hop}, SrcSig: []byte{7}, SPK: []byte{8}, Srn: 9}},
		}
		for _, c := range cases {
			rig.heard = nil
			rig.relay.Deliver(1, wire.Encode(&wire.Packet{Src: relayOrigin, Dst: relayTarget, TTL: 9, Hop: 1,
				SrcRoute: relayRoute, Msg: c.in}))
			rig.s.Run()
			want := wire.Encode(&wire.Packet{Src: relayOrigin, Dst: ipv6.AllNodes, TTL: 8, Msg: c.out})
			if len(rig.heard) != 1 || !bytes.Equal(rig.heard[0], want) {
				t.Errorf("secure=%v: relayed %s frames\n  got: %x\n want: %x", secure, c.in.Type(), rig.heard, want)
			}
		}
	}
}
