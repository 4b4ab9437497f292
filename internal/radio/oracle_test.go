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
// Every node attaches with its track's speed bound. The network mixes
// static nodes, which the grid never re-buckets, with movers at several
// speeds, which it re-buckets together once per staleness quantum. Down
// toggles and remove/add churn run between probes; joiners are fast, so
// they raise the maximum speed and shrink the quantum mid-run, and they
// reuse the ordinals of departed slow movers. One seed starts with static
// nodes only, when the grid is exact and the slop zero, and admits its
// movers after the first probes.
//
// The static seeds exercise the exact lists of a medium with no movers.
// Every node is static; churn detaches a static node and attaches a static
// joiner in its ordinal at a fresh position, half the time within the
// departed node's range, and toggles down states. A walker attaches a
// third of the way through and detaches at two thirds, so exact lists are
// built, dropped, replaced by lapsing ones while it moves and exact again
// after it leaves.
//
// The horizon seeds time the lapsing lists of a moving medium. Every node
// walks at exactly the speed at which a list serves ten probe periods, and
// every probe broadcasts twice, at its instant and 1 ns later, so lists
// serve broadcasts at exactly their horizon and lapse 1 ns or one period
// after it. Churn replaces a walker by a walker of the same speed, so
// joiners enter live lists and departures leave them. Halfway through, a
// fleet of walkers five times as fast attaches while every list is live,
// cutting the lists' life to two probe periods; a list built before it
// must not serve its old life.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sbr6/internal/draw"
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
	seed  int64
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
		m:     radio.New(s, cfg, 0, nil),
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
		area:  geom.Rect{W: 1500, H: 1500},
		r2:    cfg.Range * cfg.Range,
		track: map[radio.NodeID]mobility.Track{},
		down:  map[radio.NodeID]bool{},
		heard: map[string][]radio.NodeID{},
	}
}

// Node kinds, by speed.
const (
	kindStatic = iota
	kindSlow   // 0.5-1 m/s waypoint mover
	kindWalk   // 15 m/s random walk
	kindMedium // 5-12 m/s waypoint mover
	kindFast   // 20-40 m/s waypoint mover: the joiners
)

// add attaches a fresh node of the given kind at a random position.
func (o *oracleNet) add(kind int) radio.NodeID {
	id := o.next
	start := o.area.RandomPoint(draw.New(o.seed, draw.Placement, uint64(id)))
	trng := draw.New(o.seed, draw.Track, uint64(id))
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
	case kindMedium:
		tr = wp(5, 12)
	case kindFast:
		tr = wp(20, 40)
	}
	return o.attach(tr)
}

// attach adds a fresh node on the given track.
func (o *oracleNet) attach(tr mobility.Track) radio.NodeID {
	id := o.next
	o.next++
	o.m.AddNode(id, tr.Position, tr.SpeedBound(), radio.HandlerFunc(func(_ radio.NodeID, p []byte) {
		o.heard[string(p)] = append(o.heard[string(p)], id)
	}))
	o.track[id] = tr
	if n := len(o.free); n > 0 {
		o.slots[o.free[n-1]] = id
		o.free = o.free[:n-1]
	} else {
		o.slots = append(o.slots, id)
	}
	return id
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
func (o *oracleNet) probe(k string, expect map[string][]radio.NodeID) {
	if got, want := o.m.Live(), len(o.track); got != want {
		o.t.Fatalf("probe %s: medium holds %d live nodes, oracle %d", k, got, want)
	}
	for _, i := range o.attached() {
		want := o.want(i)
		if got := o.m.AppendNeighbors(i, nil); !sameIDs(got, want) {
			o.t.Fatalf("probe %s at %v: AppendNeighbors(%d) = %v, brute force %v", k, o.s.Now(), i, got, want)
		}
		key := fmt.Sprintf("%s/%d", k, i)
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
		if v := o.track[victim].SpeedBound(); v == 0 || v > 1 {
			continue // not a slow mover
		}
		o.remove(victim)
		o.add(kindFast)
		return
	}
}

// staticChurn toggles a node down or up, and replaces a static node by a
// static joiner that inherits its ordinal: half the time within the
// departed node's range, otherwise anywhere in the area.
func (o *oracleNet) staticChurn() {
	ids := o.attached()
	flip := ids[o.rng.Intn(len(ids))]
	o.down[flip] = !o.down[flip]
	o.m.SetDown(flip, o.down[flip])
	victim := ids[o.rng.Intn(len(ids))]
	if o.track[victim].SpeedBound() != 0 {
		return // the walker
	}
	at := o.track[victim].Position(o.s.Now())
	o.remove(victim)
	pos := geom.Point{X: o.rng.Float64() * o.area.W, Y: o.rng.Float64() * o.area.H}
	if o.rng.Intn(2) == 0 {
		r := math.Sqrt(o.r2) * math.Sqrt(o.rng.Float64())
		theta := 2 * math.Pi * o.rng.Float64()
		pos = o.area.Clamp(at.Add(geom.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)}))
	}
	o.attach(mobility.Static(pos))
}

// walker attaches a fresh random walker at exactly speed v.
func (o *oracleNet) walker(v float64) radio.NodeID {
	id := o.next
	start := o.area.RandomPoint(draw.New(o.seed, draw.Placement, uint64(id)))
	return o.attach(mobility.NewWalk(mobility.WalkConfig{Region: o.area, Speed: v, Epoch: 3 * time.Second},
		start, draw.New(o.seed, draw.Track, uint64(id))))
}

// walkerChurn toggles a node down or up, and replaces a walker by a
// walker of the same speed, which inherits its ordinal.
func (o *oracleNet) walkerChurn() {
	ids := o.attached()
	flip := ids[o.rng.Intn(len(ids))]
	o.down[flip] = !o.down[flip]
	o.m.SetDown(flip, o.down[flip])
	victim := ids[o.rng.Intn(len(ids))]
	v := o.track[victim].SpeedBound()
	o.remove(victim)
	o.walker(v)
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

// TestGridNeighborsMatchNaive holds the grid and the receiver lists to
// the brute-force oracle. Seeds 1-3 attach every kind but the joiners' up
// front; seed 4 attaches only the static ones and admits the movers
// between probes 4 and 5. Seeds 5-7 are the static seeds, 8-9 the horizon
// seeds.
func TestGridNeighborsMatchNaive(t *testing.T) {
	const probes = 240 // every 250 ms for a minute of virtual time
	const period = 250 * time.Millisecond
	probeAt := func(k int) sim.Time { return sim.Time(time.Duration(k) * period) }
	for seed := int64(1); seed <= 9; seed++ {
		o := newOracleNet(t, seed)
		late, static, horizon := seed == 4, seed >= 5 && seed <= 7, seed >= 8
		// A list serves s / maxSpeed; at hv that is ten probe periods.
		hv := radio.DefaultConfig().Range * radio.ListSlack / (10 * period).Seconds()
		for i := 0; i < 90; i++ {
			kind := i % kindFast // every kind but the joiners'
			if static {
				kind = kindStatic
			}
			if horizon {
				o.walker(hv)
			} else if !late || kind == kindStatic {
				o.add(kind)
			}
		}
		if late {
			o.s.At(sim.Time(1100*time.Millisecond), func() {
				for i := 0; i < 90; i++ {
					if kind := i % kindFast; kind != kindStatic {
						o.add(kind)
					}
				}
			})
		}
		churn := o.churn
		if static {
			churn = o.staticChurn
			var walker radio.NodeID
			o.s.At(probeAt(probes/3).Add(60*time.Millisecond), func() { walker = o.add(kindWalk) })
			o.s.At(probeAt(2*probes/3).Add(60*time.Millisecond), func() { o.remove(walker) })
		}
		if horizon {
			churn = o.walkerChurn
			o.s.At(probeAt(probes/2).Add(60*time.Millisecond), func() {
				for i := 0; i < 30; i++ {
					o.walker(5 * hv)
				}
			})
		}
		expect := map[string][]radio.NodeID{}
		for k := 1; k <= probes; k++ {
			k := k
			at := probeAt(k)
			o.s.At(at, func() { o.probe(fmt.Sprint(k), expect) })
			if horizon {
				o.s.At(at.Add(1), func() { o.probe(fmt.Sprint(k, "+1ns"), expect) })
			}
			if k%2 == 0 { // churn halfway between two probes
				o.s.At(at.Add(125*time.Millisecond), churn)
			}
		}
		o.s.RunUntil(probeAt(probes + 1))
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
