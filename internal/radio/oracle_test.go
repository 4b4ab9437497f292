package radio_test

// Brute-force neighbour oracle for the spatial grid. The oracle keeps its
// own model of the network — every attached node's track, its up/down
// state and the attachment ordinals the medium hands out, vacated ones
// reused last-in first-out — and answers "who hears node i now" by
// checking every attached pair against the raw position functions. The
// grid must agree with it exactly, order included, at every probe
// instant: for AppendNeighbors and for the receiver set of every
// broadcast.
//
// The network mixes every kind of node the grid treats differently:
// static nodes, slow and fast movers whose tracks drive their own refresh
// chains, a bounded mover left to the sweep, and an unbounded mover
// re-bucketed on every query. Down toggles and remove/add churn run
// between probes; joiners are fast and reuse the ordinals of departed slow
// movers, whose refresh chains are still pending far in the future.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sbr6/internal/geom"
	"sbr6/internal/mobility"
	"sbr6/internal/radio"
	"sbr6/internal/sim"
)

// oracleNet is a medium plus the oracle's independent model of it.
type oracleNet struct {
	t     *testing.T
	s     *sim.Simulator
	m     *radio.Medium
	rng   *rand.Rand
	area  geom.Rect
	r2    float64
	track map[radio.NodeID]mobility.Track // attached nodes
	down  map[radio.NodeID]bool
	slots []radio.NodeID // attachment ordinal -> id; -1 = vacated
	free  []int          // vacated ordinals, reused LIFO
	next  radio.NodeID   // next fresh id
	heard map[string][]radio.NodeID
}

func newOracleNet(t *testing.T, seed int64) *oracleNet {
	cfg := radio.DefaultConfig()
	cfg.BroadcastJitter = 0
	cfg.BitrateBps = 0 // receivers are sampled at the instant of the probe
	s := sim.New()
	return &oracleNet{
		t:     t,
		s:     s,
		m:     radio.New(s, cfg),
		rng:   rand.New(rand.NewSource(seed)),
		area:  geom.Rect{W: 1500, H: 1500},
		r2:    cfg.Range * cfg.Range,
		track: map[radio.NodeID]mobility.Track{},
		down:  map[radio.NodeID]bool{},
		heard: map[string][]radio.NodeID{},
	}
}

// Node kinds, by how the grid keeps their bucket fresh.
const (
	kindStatic  = iota
	kindSlow    // 0.5-1 m/s waypoint mover with a refresher: chains ~2 min apart
	kindWalk    // 15 m/s random walk with a refresher
	kindSweep   // bounded waypoint mover without a refresher: the lazy sweep
	kindUnbound // no declared bound: re-bucketed on every query
	kindFast    // 20-40 m/s waypoint mover with a refresher: the joiners
)

// add attaches a fresh node of the given kind at a random position.
func (o *oracleNet) add(kind int) {
	id := o.next
	o.next++
	start := o.area.RandomPoint(o.rng)
	trng := rand.New(rand.NewSource(o.rng.Int63()))
	wp := func(lo, hi float64) mobility.Track {
		return mobility.NewWaypoint(mobility.WaypointConfig{Region: o.area, MinSpeed: lo, MaxSpeed: hi}, start, trng)
	}
	var tr mobility.Track
	switch kind {
	case kindStatic:
		tr = mobility.Static(start)
	case kindSlow:
		tr = wp(0.5, 1)
	case kindWalk:
		tr = mobility.NewWalk(mobility.WalkConfig{Region: o.area, Speed: 15, Epoch: 3 * time.Second}, start, trng)
	case kindSweep, kindUnbound:
		tr = wp(5, 12)
	case kindFast:
		tr = wp(20, 40)
	}
	o.m.AddNode(id, tr.Position, radio.HandlerFunc(func(_ radio.NodeID, p []byte) {
		o.heard[string(p)] = append(o.heard[string(p)], id)
	}))
	if kind != kindUnbound {
		o.m.SetSpeedBound(id, tr.(mobility.Bounded).SpeedBound())
	}
	if kind != kindSweep && kind != kindUnbound {
		o.m.SetRefresher(id, tr.(mobility.Refresher).NextRefresh)
	}
	o.track[id] = tr
	if n := len(o.free); n > 0 {
		o.slots[o.free[n-1]] = id
		o.free = o.free[:n-1]
	} else {
		o.slots = append(o.slots, id)
	}
}

// remove detaches a node and vacates its ordinal.
func (o *oracleNet) remove(id radio.NodeID) {
	o.m.RemoveNode(id)
	delete(o.track, id)
	delete(o.down, id)
	for ord, at := range o.slots {
		if at == id {
			o.slots[ord] = -1
			o.free = append(o.free, ord)
		}
	}
}

// attached lists the attached ids in attachment order.
func (o *oracleNet) attached() []radio.NodeID {
	var ids []radio.NodeID
	for _, id := range o.slots {
		if id >= 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// want is the brute-force answer: every up node within range of an up
// node i, in attachment order.
func (o *oracleNet) want(i radio.NodeID) []radio.NodeID {
	var out []radio.NodeID
	if o.down[i] {
		return out
	}
	now := o.s.Now()
	at := o.track[i].Position(now)
	for _, j := range o.attached() {
		if j == i || o.down[j] {
			continue
		}
		if at.Dist2(o.track[j].Position(now)) <= o.r2 {
			out = append(out, j)
		}
	}
	return out
}

// probe checks every node's AppendNeighbors against the oracle and
// broadcasts from every node, recording what each broadcast must reach.
func (o *oracleNet) probe(k int, expect map[string][]radio.NodeID) {
	if got, want := o.m.Live(), len(o.track); got != want {
		o.t.Fatalf("probe %d: medium holds %d live nodes, oracle %d", k, got, want)
	}
	for _, i := range o.attached() {
		want := o.want(i)
		if got := o.m.AppendNeighbors(i, nil); !sameIDs(got, want) {
			o.t.Fatalf("probe %d at %v: AppendNeighbors(%d) = %v, brute force %v", k, o.s.Now(), i, got, want)
		}
		key := fmt.Sprintf("%d/%d", k, i)
		expect[key] = want
		o.m.Broadcast(i, []byte(key))
	}
}

// churn toggles a node down or up, and replaces a slow mover by a fast
// joiner that inherits its ordinal.
func (o *oracleNet) churn() {
	ids := o.attached()
	flip := ids[o.rng.Intn(len(ids))]
	o.down[flip] = !o.down[flip]
	o.m.SetDown(flip, o.down[flip])
	for tries := 0; tries < 8; tries++ {
		victim := ids[o.rng.Intn(len(ids))]
		if v := o.track[victim].(mobility.Bounded).SpeedBound(); v == 0 || v > 1 {
			continue // not a slow mover
		}
		o.remove(victim)
		o.add(kindFast)
		return
	}
}

func sameIDs(a, b []radio.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGridNeighborsMatchNaive holds the grid to the brute-force oracle.
func TestGridNeighborsMatchNaive(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := newOracleNet(t, seed)
		for i := 0; i < 90; i++ {
			o.add(i % kindFast) // every kind but the joiners'
		}
		expect := map[string][]radio.NodeID{}
		const probes = 240 // every 250 ms for a minute of virtual time
		for k := 1; k <= probes; k++ {
			k := k
			at := sim.Time(time.Duration(k) * 250 * time.Millisecond)
			o.s.At(at, func() { o.probe(k, expect) })
			if k%2 == 0 { // churn halfway between two probes
				o.s.At(at.Add(125*time.Millisecond), o.churn)
			}
		}
		o.s.RunUntil(sim.Time(time.Duration(probes+1) * 250 * time.Millisecond))
		for key, want := range expect {
			if got := o.heard[key]; !sameIDs(got, want) {
				t.Fatalf("seed %d: broadcast %s reached %v, brute force %v", seed, key, got, want)
			}
		}
		if len(expect) < probes*80 {
			t.Fatalf("seed %d: only %d broadcasts checked", seed, len(expect))
		}
	}
}
