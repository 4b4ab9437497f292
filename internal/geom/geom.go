// Package geom provides the minimal 2-D geometry used by the mobility and
// radio models: points, distances and rectangular regions.
package geom

import (
	"fmt"
	"math"

	"sbr6/internal/draw"
)

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance, avoiding the square root for
// range comparisons on the hot path.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp linearly interpolates from p to q; frac 0 yields p, 1 yields q.
func (p Point) Lerp(q Point, frac float64) Point {
	return Point{p.X + (q.X-p.X)*frac, p.Y + (q.Y-p.Y)*frac}
}

// Rect is an axis-aligned rectangle [0,W] x [0,H] anchored at the origin.
// Simulation areas are always origin-anchored, so only extents are stored.
type Rect struct {
	W, H float64
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{math.Min(math.Max(p.X, 0), r.W), math.Min(math.Max(p.Y, 0), r.H)}
}

// RandomPoint returns a uniformly random point inside the rectangle from
// the next two draws of src.
func (r Rect) RandomPoint(src *draw.Source) Point {
	return Point{src.Float64() * r.W, src.Float64() * r.H}
}

// Area returns the rectangle's area in square metres.
func (r Rect) Area() float64 { return r.W * r.H }
