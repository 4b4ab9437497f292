package core

import (
	"sbr6/internal/ipv6"
	"sbr6/internal/ndp"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
	"sbr6/internal/wire"
)

// Region is what the nodes on one medium share: the simulator and medium
// they run on, the flood table their seen-sets are views of, and the scan
// of the delivery in progress. The receivers one delivery event reaches
// read one wire.Scan, one DNS-flood content hash and one flood-record
// lookup between them; each keeps its own dead check, counters,
// neighbour entry, admission bit and dispatch. Build one Region per
// medium (under the sharded engine, one per engine region) and every node
// on that medium with it. Like the simulator, a Region is single-threaded.
type Region struct {
	sim    *sim.Simulator
	medium *radio.Medium
	floods *ndp.FloodTable

	// delivery is the medium's number (radio.Medium.Delivery) of the
	// delivery event scan was read for.
	delivery uint64
	scan     rxScan
}

// NewRegion returns the region of the nodes on medium m, which runs on s.
func NewRegion(s *sim.Simulator, m *radio.Medium) *Region {
	return &Region{sim: s, medium: m, floods: ndp.NewFloodTable()}
}

// shared returns the scan of the delivery in progress, reading payload
// for the delivery's first receiver (every receiver of one delivery event
// gets the same bytes, see radio.Handler), or nil when no delivery event
// is running: a frame handed to Deliver directly. The scan is keyed by the
// medium's delivery number, never by the buffer's address: the frame pool
// hands a released buffer to the next transmission.
func (r *Region) shared(payload []byte) *rxScan {
	d := r.medium.Delivery()
	if d == 0 {
		return nil
	}
	if d != r.delivery {
		r.delivery = d
		r.scan.read(payload)
	}
	return &r.scan
}

// rxScan is what every receiver of one frame reads alike: the envelope,
// the link-layer transmitter it implies and the flood identity admission
// checks.
type rxScan struct {
	env     wire.Envelope
	bad     bool // Scan rejected the frame; env holds nothing
	prev    ipv6.Addr
	hasPrev bool
	// flood is the frame's identity in the seen-set admit consults: the
	// origin and challenge key of an AREQ or audit advertisement, the
	// origin and sequence number of an RREQ, the sender and content hash
	// of a flood-routed DNS control frame. Its record memo is shared by
	// the delivery's receivers.
	flood ndp.FloodID
}

// read scans raw into s.
func (s *rxScan) read(raw []byte) {
	s.flood = ndp.FloodID{}
	if s.bad = wire.Scan(raw, &s.env) != nil; s.bad {
		return
	}
	e := &s.env
	s.prev, s.hasPrev = transmitter(e)
	// The cases mirror admit's.
	switch {
	case e.Dst == ipv6.DNS1 && e.RouteLen == 0:
		s.flood = ndp.FloodID{Src: e.Src, Key: dnsFloodKey(raw)}
	case e.Type == wire.TAREQ, e.Type == wire.TAuditAdv:
		s.flood = ndp.FloodID{Src: e.SIP, Key: challengeKey(e.Seq, e.Ch)}
	case e.Type == wire.TRREQ:
		s.flood = ndp.FloodID{Src: e.SIP, Key: e.Seq}
	}
}
