package mobility

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/geom"
	"sbr6/internal/sim"
)

func TestStaticNeverMoves(t *testing.T) {
	s := Static(geom.Point{X: 3, Y: 4})
	for _, tm := range []sim.Time{0, sim.Time(time.Hour), sim.Time(24 * time.Hour)} {
		if s.Position(tm) != (geom.Point{X: 3, Y: 4}) {
			t.Fatalf("static track moved at %v", tm)
		}
	}
}

func TestWaypointStaysInRegion(t *testing.T) {
	region := geom.Rect{W: 500, H: 300}
	cfg := WaypointConfig{Region: region, MinSpeed: 1, MaxSpeed: 10, Pause: 2 * time.Second}
	tr := NewWaypoint(cfg, geom.Point{X: 100, Y: 100}, draw.New(1, draw.Track, 0))
	for i := 0; i < 5000; i++ {
		p := tr.Position(sim.Time(i) * sim.Time(100*time.Millisecond))
		if !region.Contains(p) {
			t.Fatalf("waypoint left region at step %d: %v", i, p)
		}
	}
}

func TestWaypointStartsAtStart(t *testing.T) {
	start := geom.Point{X: 42, Y: 17}
	tr := NewWaypoint(WaypointConfig{Region: geom.Rect{W: 100, H: 100}, MinSpeed: 1, MaxSpeed: 1}, start, draw.New(2, draw.Track, 0))
	if got := tr.Position(0); got != start {
		t.Fatalf("Position(0) = %v, want %v", got, start)
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	// With MaxSpeed v, displacement over dt can never exceed v*dt.
	cfg := WaypointConfig{Region: geom.Rect{W: 1000, H: 1000}, MinSpeed: 5, MaxSpeed: 20}
	tr := NewWaypoint(cfg, geom.Point{X: 500, Y: 500}, draw.New(3, draw.Track, 0))
	dt := 100 * time.Millisecond
	prev := tr.Position(0)
	for i := 1; i < 3000; i++ {
		now := tr.Position(sim.Time(i) * sim.Time(dt))
		if d := prev.Dist(now); d > 20*dt.Seconds()+1e-9 {
			t.Fatalf("speed bound violated at step %d: moved %v m in %v", i, d, dt)
		}
		prev = now
	}
}

// Every built-in track declares the speed bound the radio's spatial index
// relies on: zero for static tracks, the normalized configured maximum for
// the movers.
func TestTracksDeclareSpeedBounds(t *testing.T) {
	rng := func() *draw.Source { return draw.New(1, draw.Track, 0) }
	region := geom.Rect{W: 1000, H: 1000}
	cases := []struct {
		name  string
		track Track
		want  float64
	}{
		{"static", Static(geom.Point{X: 1}), 0},
		{"waypoint", NewWaypoint(WaypointConfig{Region: region, MinSpeed: 2, MaxSpeed: 15}, geom.Point{}, rng()), 15},
		{"waypoint clamped", NewWaypoint(WaypointConfig{Region: region, MinSpeed: 5, MaxSpeed: 1}, geom.Point{}, rng()), 5},
		{"walk", NewWalk(WalkConfig{Region: region, Speed: 7}, geom.Point{}, rng()), 7},
		{"walk defaulted", NewWalk(WalkConfig{Region: region}, geom.Point{}, rng()), 1},
	}
	for _, c := range cases {
		if got := c.track.SpeedBound(); got != c.want {
			t.Errorf("%s: SpeedBound = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWaypointDeterministicAndMonotoneQueries(t *testing.T) {
	mk := func() Track {
		return NewWaypoint(WaypointConfig{Region: geom.Rect{W: 300, H: 300}, MinSpeed: 1, MaxSpeed: 5, Pause: time.Second},
			geom.Point{X: 10, Y: 10}, draw.New(7, draw.Track, 0))
	}
	a, b := mk(), mk()
	// Query a in order, b out of order; same answers must come back.
	times := []sim.Time{0, sim.Time(5 * time.Second), sim.Time(60 * time.Second), sim.Time(30 * time.Second), sim.Time(60 * time.Second)}
	fromA := make([]geom.Point, len(times))
	for i, tm := range times {
		fromA[i] = a.Position(tm)
	}
	for _, i := range []int{2, 0, 4, 1, 3} {
		if got := b.Position(times[i]); got != fromA[i] {
			t.Fatalf("out-of-order query diverged at t=%v: %v vs %v", times[i], got, fromA[i])
		}
	}
}

func TestWaypointPause(t *testing.T) {
	// With min==max speed 1 m/s in a tiny region and a long pause, the node
	// must be stationary for stretches.
	cfg := WaypointConfig{Region: geom.Rect{W: 10, H: 10}, MinSpeed: 1, MaxSpeed: 1, Pause: time.Minute}
	tr := NewWaypoint(cfg, geom.Point{X: 5, Y: 5}, draw.New(11, draw.Track, 0))
	stationary := 0
	prev := tr.Position(0)
	for i := 1; i < 600; i++ {
		now := tr.Position(sim.Time(i) * sim.Time(time.Second))
		if now == prev {
			stationary++
		}
		prev = now
	}
	if stationary < 300 {
		t.Fatalf("expected long pauses, only %d stationary seconds of 600", stationary)
	}
}

func TestWalkStaysInRegion(t *testing.T) {
	region := geom.Rect{W: 200, H: 200}
	tr := NewWalk(WalkConfig{Region: region, Speed: 15, Epoch: 5 * time.Second}, geom.Point{X: 100, Y: 100}, draw.New(5, draw.Track, 0))
	for i := 0; i < 2000; i++ {
		p := tr.Position(sim.Time(i) * sim.Time(500*time.Millisecond))
		if !region.Contains(p) {
			t.Fatalf("walk left region: %v", p)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	// Zero-valued speeds must not produce NaN positions or hangs.
	tr := NewWaypoint(WaypointConfig{Region: geom.Rect{W: 10, H: 10}}, geom.Point{}, draw.New(1, draw.Track, 0))
	p := tr.Position(sim.Time(time.Minute))
	if p != p { // NaN check
		t.Fatal("NaN position")
	}
	tw := NewWalk(WalkConfig{Region: geom.Rect{W: 10, H: 10}}, geom.Point{}, draw.New(1, draw.Track, 0))
	if q := tw.Position(sim.Time(time.Minute)); q != q {
		t.Fatal("NaN position")
	}
}

func TestUniformPlacementInRegion(t *testing.T) {
	region := geom.Rect{W: 123, H: 456}
	pts := UniformPlacement(region, 500, draw.New(9, draw.Placement, 0))
	if len(pts) != 500 {
		t.Fatalf("len = %d", len(pts))
	}
	for _, p := range pts {
		if !region.Contains(p) {
			t.Fatalf("placement outside region: %v", p)
		}
	}
}

func TestGridPlacement(t *testing.T) {
	region := geom.Rect{W: 100, H: 100}
	pts := GridPlacement(region, 9)
	if len(pts) != 9 {
		t.Fatalf("len = %d", len(pts))
	}
	// 3x3 grid: cells 33.3x33.3, centres at 16.67, 50, 83.3.
	if pts[0].Dist(geom.Point{X: 100.0 / 6, Y: 100.0 / 6}) > 1e-9 {
		t.Fatalf("first cell centre wrong: %v", pts[0])
	}
	for _, p := range pts {
		if !region.Contains(p) {
			t.Fatalf("grid point outside region: %v", p)
		}
	}
	if GridPlacement(region, 0) != nil {
		t.Fatal("n=0 should yield nil")
	}
}

func TestLinePlacement(t *testing.T) {
	pts := LinePlacement(4, 200)
	want := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("pts = %v", pts)
		}
	}
}

// Property: waypoint positions are always inside the region, for arbitrary
// query times (including repeated and unordered ones).
func TestPropertyWaypointInRegion(t *testing.T) {
	region := geom.Rect{W: 400, H: 250}
	tr := NewWaypoint(WaypointConfig{Region: region, MinSpeed: 0.5, MaxSpeed: 25, Pause: 3 * time.Second},
		geom.Point{X: 200, Y: 125}, draw.New(13, draw.Track, 0))
	prop := func(ticks uint32) bool {
		return region.Contains(tr.Position(sim.Time(ticks) * sim.Time(time.Millisecond)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWaypointPosition(b *testing.B) {
	tr := NewWaypoint(WaypointConfig{Region: geom.Rect{W: 1000, H: 1000}, MinSpeed: 1, MaxSpeed: 20},
		geom.Point{X: 1, Y: 1}, draw.New(1, draw.Track, 0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Position(sim.Time(i%100000) * sim.Time(10*time.Millisecond))
	}
}

func TestGlideTrack(t *testing.T) {
	from := geom.Point{X: 0, Y: 0}
	to := geom.Point{X: 300, Y: 400} // 500 m apart
	start := sim.Time(0).Add(2 * time.Second)
	g := NewGlide(from, to, start, 100) // 5 s of travel

	if got := g.Position(0); got != from {
		t.Fatalf("before start: %v", got)
	}
	if got := g.Position(start); got != from {
		t.Fatalf("at start: %v", got)
	}
	mid := g.Position(start.Add(2500 * time.Millisecond))
	if math.Abs(mid.X-150) > 1e-9 || math.Abs(mid.Y-200) > 1e-9 {
		t.Fatalf("midpoint: %v", mid)
	}
	if got := g.Position(start.Add(time.Hour)); got != to {
		t.Fatalf("after arrival: %v", got)
	}
	if want := start.Add(5 * time.Second); g.Arrival() != want {
		t.Fatalf("arrival %v, want %v", g.Arrival(), want)
	}
	if g.SpeedBound() != 100 {
		t.Fatalf("speed bound %v", g.SpeedBound())
	}
	// Determinism out of order: querying late then early agrees with the
	// forward pass (the medium's lazy re-bucketing does exactly this).
	g2 := NewGlide(from, to, start, 100)
	_ = g2.Position(start.Add(time.Minute))
	if got := g2.Position(start.Add(2500 * time.Millisecond)); got != mid {
		t.Fatalf("out-of-order query diverged: %v vs %v", got, mid)
	}
	// Degenerate zero-length glide holds position.
	if got := NewGlide(from, from, start, 50).Position(start.Add(time.Second)); got != from {
		t.Fatalf("zero-length glide moved: %v", got)
	}
}

// A walk that forgets its past at every barrier answers every query at or
// after the barrier exactly as an untrimmed twin from the same seed, keeps
// a bounded history while the twin's grows with virtual time, and panics
// on a query before the last barrier.
func TestWalkForgetBoundsHistory(t *testing.T) {
	cfg := WalkConfig{Region: geom.Rect{W: 500, H: 500}, Speed: 5, Epoch: time.Second}
	mk := func() *mover {
		return NewWalk(cfg, geom.Point{X: 250, Y: 250}, draw.New(7, draw.Track, 0)).(*mover)
	}
	trimmed, twin := mk(), mk()
	q := rand.New(rand.NewSource(8))
	var barrier sim.Time
	for round := 0; round < 300; round++ {
		next := barrier + sim.Time(1+q.Int63n(int64(3*time.Second)))
		for i := 0; i < 10; i++ {
			at := barrier + sim.Time(q.Int63n(int64(next-barrier)+1))
			if got, want := trimmed.Position(at), twin.Position(at); got != want {
				t.Fatalf("round %d: Position(%v) = %v, untrimmed twin says %v", round, at, got, want)
			}
		}
		barrier = next
		trimmed.Forget(barrier)
		if len(trimmed.legs) > 2 {
			t.Fatalf("round %d: %d legs kept after Forget(%v)", round, len(trimmed.legs), barrier)
		}
	}
	if len(twin.legs) < 200 {
		t.Fatalf("untrimmed twin holds only %d legs; the bound above is vacuous", len(twin.legs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Position before the last Forget did not panic")
		}
	}()
	trimmed.Position(barrier - 1)
}
