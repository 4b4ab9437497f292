package core

import (
	"math"
	"runtime"
	"testing"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// fanout is a region of receivers around one transmitter, all in radio
// range of it.
type fanout struct {
	s         *sim.Simulator
	medium    *radio.Medium
	receivers []*Node
}

// newFanout places k unconfigured nodes of one region on a 100 m circle
// around a transmitter at the origin with link id 0, whose handler is tx.
func newFanout(t testing.TB, k int, tx radio.Handler) *fanout {
	t.Helper()
	s := sim.New()
	medium := radio.New(s, radio.DefaultConfig(), 0, nil)
	region := NewRegion(s, medium)
	medium.AddNode(0, func(sim.Time) geom.Point { return geom.Point{} }, 0, tx)
	fo := &fanout{s: s, medium: medium}
	for i := 1; i <= k; i++ {
		ident, err := identity.New(identity.SuiteEd25519, draw.New(7, draw.Key, uint64(i)), "")
		if err != nil {
			t.Fatal(err)
		}
		n := New(region, radio.NodeID(i), ident, ident.Pub, DefaultConfig(), draw.New(7, draw.Protocol, uint64(i)), nil)
		a := 2 * math.Pi * float64(i) / float64(k)
		pos := geom.Point{X: 100 * math.Cos(a), Y: 100 * math.Sin(a)}
		medium.AddNode(radio.NodeID(i), func(sim.Time) geom.Point { return pos }, 0, n)
		fo.receivers = append(fo.receivers, n)
	}
	return fo
}

// The receivers of one delivery share its scan, and the medium's delivery
// number, not the frame buffer, tells the next delivery apart: two AREQ
// floods of equal size, the second encoded only after the first delivery
// has released its buffer, reach every receiver as two floods although
// the pool hands the second the first one's buffer.
func TestSharedScanEndsWithItsDelivery(t *testing.T) {
	var bufs []*byte
	listener := radio.HandlerFunc(func(_ radio.NodeID, b []byte) { bufs = append(bufs, &b[0]) })
	fo := newFanout(t, 3, listener)
	ident, err := identity.New(identity.SuiteEd25519, draw.New(8, draw.Key, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	region := fo.receivers[0].region
	sender := New(region, 9, ident, ident.Pub, DefaultConfig(), draw.New(8, draw.Protocol, 0), nil)
	fo.medium.AddNode(9, func(sim.Time) geom.Point { return geom.Point{Y: 10} }, 0, sender)
	// The listener hears the sender too: it sits 10 m away, at link id 0.
	origin := ipv6.SiteLocal(0, 0x0e0e)
	for seq := uint32(1); seq <= 2; seq++ {
		sender.Flood(&wire.AREQ{SIP: origin, Seq: seq, Ch: 5}, 1)
		fo.s.Run()
	}
	if len(bufs) != 2 || bufs[0] != bufs[1] {
		t.Fatalf("the second flood did not reuse the first one's buffer (%d deliveries heard)", len(bufs))
	}
	for i, n := range fo.receivers {
		if got := n.Metrics().Get("rx.AREQ"); got != 2 {
			t.Errorf("receiver %d counted rx.AREQ %v times, want 2", i+1, got)
		}
	}
}

// fanoutReceivers is BenchmarkReceiveFanout's fan-out: perfbench
// bootstrap's traced windows deliver 11.4 copies per transmission.
const fanoutReceivers = 12

// BenchmarkReceiveFanout delivers one AREQ frame to 12 receivers sharing
// a region and reports the receive path's cost per received copy,
// transmission included. In fresh, every frame is a new flood each
// receiver admits and handles (its TTL of 1 stops the relay); in
// duplicate, every frame is one the receivers have already seen, so
// admission drops every copy, as it drops about nine in ten of a
// bootstrap window's.
func BenchmarkReceiveFanout(b *testing.B) {
	origin := ipv6.SiteLocal(0, 0x0f0f)
	for _, fresh := range []bool{true, false} {
		name := "duplicate"
		if fresh {
			name = "fresh"
		}
		b.Run(name, func(b *testing.B) {
			fo := newFanout(b, fanoutReceivers, radio.HandlerFunc(func(radio.NodeID, []byte) {}))
			frames := make([][]byte, 1)
			if fresh {
				frames = make([][]byte, b.N)
			}
			for i := range frames {
				frames[i] = wire.Encode(&wire.Packet{Src: origin, Dst: ipv6.AllNodes, TTL: 1,
					Msg: &wire.AREQ{SIP: origin, Seq: uint32(i + 1), DN: "host", Ch: 3}})
			}
			if !fresh {
				fo.medium.Broadcast(0, frames[0])
				fo.s.Run()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fo.medium.Broadcast(0, frames[i%len(frames)])
				fo.s.Run()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			want := b.N
			if !fresh {
				want++ // the warm-up copy
			}
			if got := fo.receivers[0].Metrics().Get("rx.frames"); got != float64(want) {
				b.Fatalf("a receiver got %v frames, want %d", got, want)
			}
			copies := float64(b.N * fanoutReceivers)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/copies, "ns/copy")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/copies, "allocs/copy")
		})
	}
}
