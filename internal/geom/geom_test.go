package geom

import (
	"math"
	"testing"
	"testing/quick"

	"sbr6/internal/draw"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-1, 0}, Point{2, 4}, 5},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := c.p.Dist2(c.q); math.Abs(got-c.want*c.want) > 1e-9 {
			t.Errorf("Dist2(%v, %v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestLerpEndpointsAndMidpoint(t *testing.T) {
	p, q := Point{0, 0}, Point{10, 20}
	if p.Lerp(q, 0) != p {
		t.Error("Lerp(0) != p")
	}
	if p.Lerp(q, 1) != q {
		t.Error("Lerp(1) != q")
	}
	if mid := p.Lerp(q, 0.5); mid != (Point{5, 10}) {
		t.Errorf("Lerp(0.5) = %v", mid)
	}
}

func TestRectContainsAndClamp(t *testing.T) {
	r := Rect{100, 50}
	inside := []Point{{0, 0}, {100, 50}, {50, 25}}
	for _, p := range inside {
		if !r.Contains(p) {
			t.Errorf("Contains(%v) = false", p)
		}
	}
	outside := []Point{{-1, 0}, {0, -1}, {101, 0}, {0, 51}}
	for _, p := range outside {
		if r.Contains(p) {
			t.Errorf("Contains(%v) = true", p)
		}
		if c := r.Clamp(p); !r.Contains(c) {
			t.Errorf("Clamp(%v) = %v not inside", p, c)
		}
	}
	if r.Area() != 5000 {
		t.Errorf("Area = %v", r.Area())
	}
}

func TestRandomPointInsideRect(t *testing.T) {
	r := Rect{300, 700}
	rng := draw.New(9, draw.Placement, 0)
	for i := 0; i < 1000; i++ {
		if p := r.RandomPoint(rng); !r.Contains(p) {
			t.Fatalf("RandomPoint produced %v outside %v", p, r)
		}
	}
}

// Property: distance is symmetric and satisfies the triangle inequality.
func TestPropertyMetricAxioms(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1e6)
	}
	prop := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		if math.Abs(a.Dist(b)-b.Dist(a)) > 1e-9 {
			return false
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Clamp is idempotent.
func TestPropertyClampIdempotent(t *testing.T) {
	r := Rect{1000, 1000}
	prop := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		once := r.Clamp(Point{x, y})
		return r.Clamp(once) == once
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
