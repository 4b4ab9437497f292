// Package mobility provides deterministic node mobility models for the
// simulated MANET: static placement, random waypoint, and bounded random
// walk. Every model exposes a Track — a function of virtual time to a
// position, with the speed bound it never exceeds — built lazily from a
// seeded random source so that runs are reproducible and positions can be
// queried out of order.
package mobility

import (
	"math"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/sim"
)

// Track reports a node's position at a virtual time. Implementations must be
// deterministic: the same Track queried at the same time always returns the
// same point.
type Track interface {
	Position(t sim.Time) geom.Point
	// SpeedBound returns the maximum speed in metres/second the track can
	// ever move at; zero means it never moves. The radio medium's spatial
	// index sizes the staleness slop of its lazily re-bucketed position
	// cache by it: a node drifts at most SpeedBound times the cache age
	// from its bucketed position.
	SpeedBound() float64
	// Forget drops history no later query can reach. The sharded engine
	// calls it at every barrier with the earliest instant any later query
	// can name, so a track's history stays bounded over an open-ended run.
	// A query before t afterwards is a bug and may panic.
	Forget(t sim.Time)
}

// Static is a Track that never moves.
type Static geom.Point

// Position implements Track.
func (s Static) Position(sim.Time) geom.Point { return geom.Point(s) }

// SpeedBound implements Track: a static node never moves.
func (s Static) SpeedBound() float64 { return 0 }

// Forget implements Track: a static node keeps no history.
func (s Static) Forget(sim.Time) {}

// leg is one segment of piecewise-linear motion: travel from From to To
// during [Start, ArriveAt], then hold position until End (pause time).
type leg struct {
	start    sim.Time
	arriveAt sim.Time
	end      sim.Time
	from, to geom.Point
}

func (l leg) position(t sim.Time) geom.Point {
	if t <= l.start || l.arriveAt == l.start {
		return l.from
	}
	if t >= l.arriveAt {
		return l.to
	}
	frac := float64(t-l.start) / float64(l.arriveAt-l.start)
	return l.from.Lerp(l.to, frac)
}

// mover lazily extends a trajectory with legs produced by next. The speed
// bound is the fastest any generated leg can travel, declared up front by
// the model that builds the mover. Legs that ended before floor have been
// forgotten.
type mover struct {
	legs  []leg
	next  func(prev leg) leg
	bound float64
	floor sim.Time
}

// SpeedBound implements Track.
func (m *mover) SpeedBound() float64 { return m.bound }

// Position implements Track.
func (m *mover) Position(t sim.Time) geom.Point {
	if t < m.floor {
		panic("mobility: position queried before the forgotten history")
	}
	for m.legs[len(m.legs)-1].end < t {
		m.legs = append(m.legs, m.next(m.legs[len(m.legs)-1]))
	}
	// Binary search for the covering leg.
	lo, hi := 0, len(m.legs)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if m.legs[mid].end < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return m.legs[lo].position(t)
}

// Forget implements Track: it drops every leg that ended before t,
// keeping the newest, which the next leg is generated from. Position picks
// the first leg that ends at or after the queried instant, so every answer
// at or after t is unchanged.
func (m *mover) Forget(t sim.Time) {
	if t <= m.floor {
		return
	}
	m.floor = t
	i := 0
	for i < len(m.legs)-1 && m.legs[i].end < t {
		i++
	}
	m.legs = m.legs[:copy(m.legs, m.legs[i:])]
}

// WaypointConfig parameterizes the classic random waypoint model.
type WaypointConfig struct {
	Region   geom.Rect
	MinSpeed float64       // metres/second, > 0 to avoid the speed-decay pathology
	MaxSpeed float64       // metres/second, >= MinSpeed
	Pause    time.Duration // pause at each waypoint
}

// NewWaypoint builds a random waypoint Track starting at start. src must
// be dedicated to this track: the node's track stream.
func NewWaypoint(cfg WaypointConfig, start geom.Point, src *draw.Source) Track {
	if cfg.MinSpeed <= 0 {
		cfg.MinSpeed = 0.1
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		cfg.MaxSpeed = cfg.MinSpeed
	}
	next := func(prev leg) leg {
		dest := cfg.Region.RandomPoint(src)
		speed := cfg.MinSpeed + src.Float64()*(cfg.MaxSpeed-cfg.MinSpeed)
		dist := prev.to.Dist(dest)
		travel := sim.Duration(dist / speed * float64(time.Second))
		arrive := prev.end.Add(travel)
		return leg{start: prev.end, arriveAt: arrive, end: arrive.Add(cfg.Pause), from: prev.to, to: dest}
	}
	seed := leg{start: 0, arriveAt: 0, end: 0, from: start, to: start}
	return &mover{legs: []leg{seed}, next: next, bound: cfg.MaxSpeed}
}

// WalkConfig parameterizes a bounded random walk: at each epoch the node
// picks a uniformly random direction and walks at Speed for Epoch, clamped
// to the region.
type WalkConfig struct {
	Region geom.Rect
	Speed  float64 // metres/second
	Epoch  time.Duration
}

// NewWalk builds a bounded random-walk Track starting at start, drawing
// from src like NewWaypoint.
func NewWalk(cfg WalkConfig, start geom.Point, src *draw.Source) Track {
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * time.Second
	}
	next := func(prev leg) leg {
		theta := src.Float64() * 2 * math.Pi
		step := cfg.Speed * cfg.Epoch.Seconds()
		dest := cfg.Region.Clamp(prev.to.Add(geom.Point{X: math.Cos(theta) * step, Y: math.Sin(theta) * step}))
		arrive := prev.end.Add(cfg.Epoch)
		return leg{start: prev.end, arriveAt: arrive, end: arrive, from: prev.to, to: dest}
	}
	seed := leg{from: start, to: start}
	return &mover{legs: []leg{seed}, next: next, bound: cfg.Speed}
}

// Glide is the scripted merge track of the partition scenarios: static at
// From until Start, then straight-line motion to To at Speed, then static
// at To forever. It is fully deterministic — no random source — so joining
// two independently formed clusters never perturbs a seeded run.
type Glide struct {
	From, To geom.Point
	Start    sim.Time
	Speed    float64 // metres/second, > 0
}

// NewGlide builds the track; a non-positive speed is clamped to 1 m/s.
func NewGlide(from, to geom.Point, start sim.Time, speed float64) *Glide {
	if speed <= 0 {
		speed = 1
	}
	return &Glide{From: from, To: to, Start: start, Speed: speed}
}

// Position implements Track.
func (g *Glide) Position(t sim.Time) geom.Point {
	if t <= g.Start {
		return g.From
	}
	dist := g.From.Dist(g.To)
	if dist == 0 {
		return g.To
	}
	travelled := g.Speed * t.Sub(g.Start).Seconds()
	if travelled >= dist {
		return g.To
	}
	return g.From.Lerp(g.To, travelled/dist)
}

// SpeedBound implements Track.
func (g *Glide) SpeedBound() float64 { return g.Speed }

// Forget implements Track: a glide is a closed form and keeps no history.
func (g *Glide) Forget(sim.Time) {}

// Arrival returns the instant the track reaches To.
func (g *Glide) Arrival() sim.Time {
	dist := g.From.Dist(g.To)
	return g.Start.Add(sim.Duration(dist / g.Speed * float64(time.Second)))
}

// UniformPlacement returns n independent uniform positions inside region,
// drawn from src in order.
func UniformPlacement(region geom.Rect, n int, src *draw.Source) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = region.RandomPoint(src)
	}
	return pts
}

// GridPlacement lays out n nodes on the most-square grid that fits region,
// centred in each cell. Deterministic; used by the scripted figure
// reproductions where the topology must match the paper's diagrams.
func GridPlacement(region geom.Rect, n int) []geom.Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	pts := make([]geom.Point, 0, n)
	cw, ch := region.W/float64(cols), region.H/float64(rows)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, geom.Point{X: (float64(c) + 0.5) * cw, Y: (float64(r) + 0.5) * ch})
	}
	return pts
}

// LinePlacement lays out n nodes on a horizontal line with the given
// spacing, used for chain topologies in route-discovery experiments.
func LinePlacement(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(i) * spacing, Y: 0}
	}
	return pts
}
