package geom

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// bruteQuery is the reference implementation: a linear scan over every
// stored point with the same inclusive boundary rule as Grid.Query.
func bruteQuery(pts map[int]Point, c Point, r float64) []int {
	var out []int
	r2 := r * r
	for id, p := range pts {
		if c.Dist2(p) <= r2 {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func sortedQuery(g *Grid, c Point, r float64) []int {
	out := g.Query(c, r, nil)
	slices.Sort(out)
	return out
}

func TestGridBasicOps(t *testing.T) {
	g := NewGrid(100)
	if g.Cell() != 100 || g.Len() != 0 {
		t.Fatalf("fresh grid: cell=%v len=%d", g.Cell(), g.Len())
	}
	g.Set(1, Point{X: 10, Y: 10})
	g.Set(2, Point{X: 20, Y: 10})
	g.Set(1, Point{X: 15, Y: 10}) // move within the same cell
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
	if p, ok := g.At(1); !ok || p != (Point{X: 15, Y: 10}) {
		t.Fatalf("At(1) = %v, %v", p, ok)
	}
	g.Set(2, Point{X: 950, Y: -320}) // move across cells, negative coords
	if got := sortedQuery(g, Point{X: 950, Y: -320}, 1); !slices.Equal(got, []int{2}) {
		t.Fatalf("query after move = %v", got)
	}
	g.Remove(2)
	g.Remove(99) // unknown id is a no-op
	if g.Len() != 1 {
		t.Fatalf("Len after remove = %d", g.Len())
	}
	if _, ok := g.At(2); ok {
		t.Fatal("removed id still stored")
	}
	if got := g.Query(Point{}, -1, nil); got != nil {
		t.Fatalf("negative radius returned %v", got)
	}
	if NewGrid(0).Cell() != 1 {
		t.Fatal("non-positive cell size not clamped")
	}
}

// Points exactly on the range boundary must be included, wherever the
// boundary falls relative to cell edges.
func TestGridBoundaryInclusive(t *testing.T) {
	for _, cell := range []float64{50, 100, 250, 1000} {
		g := NewGrid(cell)
		c := Point{X: 123, Y: -77}
		r := 250.0
		g.Set(1, Point{X: c.X + r, Y: c.Y}) // exactly on the boundary
		g.Set(2, Point{X: c.X - r, Y: c.Y})
		g.Set(3, Point{X: c.X, Y: c.Y + r})
		g.Set(4, Point{X: c.X, Y: c.Y - r})
		g.Set(5, c) // the centre itself
		g.Set(6, Point{X: c.X + r + 1e-6, Y: c.Y})
		got := sortedQuery(g, c, r)
		if !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
			t.Fatalf("cell=%v: boundary query = %v", cell, got)
		}
	}
}

// Property: after an arbitrary interleaving of inserts, moves and removals,
// a circle query through the grid equals the brute-force distance scan —
// including points exactly on the boundary, which the generator plants
// deliberately.
func TestPropertyGridEqualsBruteForce(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cell := []float64{25, 100, 250, 400}[rng.Intn(4)]
		g := NewGrid(cell)
		mirror := map[int]Point{}
		randPoint := func() Point {
			// Span several cells on both sides of the origin.
			return Point{X: rng.Float64()*4000 - 2000, Y: rng.Float64()*4000 - 2000}
		}
		nOps := 50 + rng.Intn(200)
		for i := 0; i < nOps; i++ {
			id := rng.Intn(60)
			switch rng.Intn(4) {
			case 0, 1: // insert or move
				p := randPoint()
				g.Set(id, p)
				mirror[id] = p
			case 2: // remove (possibly unknown)
				g.Remove(id)
				delete(mirror, id)
			case 3: // node toggled down and up elsewhere: move far away
				p := randPoint().Scale(2)
				g.Set(id, p)
				mirror[id] = p
			}
		}
		if g.Len() != len(mirror) {
			return false
		}
		for q := 0; q < 20; q++ {
			c := randPoint()
			r := rng.Float64() * 600
			if q%5 == 0 && len(mirror) > 0 {
				// Plant a point exactly at distance r from the centre.
				ids := make([]int, 0, len(mirror))
				for id := range mirror {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				id := ids[rng.Intn(len(ids))]
				p := Point{X: c.X + r, Y: c.Y}
				g.Set(id, p)
				mirror[id] = p
			}
			if !slices.Equal(sortedQuery(g, c, r), bruteQuery(mirror, c, r)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Query must reuse the caller's buffer when it has capacity.
func TestGridQueryReusesBuffer(t *testing.T) {
	g := NewGrid(100)
	for i := 0; i < 32; i++ {
		g.Set(i, Point{X: float64(i), Y: 0})
	}
	buf := make([]int, 0, 64)
	out := g.Query(Point{}, 1000, buf)
	if len(out) != 32 || &out[0] != &buf[:1][0] {
		t.Fatalf("query did not reuse the buffer (len=%d)", len(out))
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.Query(Point{}, 1000, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("Query allocated %v times per run with a sized buffer", allocs)
	}
}

// Cell introspection: CellOf, CellOccupancy and VisitCells must agree with
// each other and with the bucketing Query uses.
func TestGridCellIntrospection(t *testing.T) {
	g := NewGrid(100)
	pts := map[int]Point{
		1: {X: 10, Y: 10},   // cell (0,0)
		2: {X: 90, Y: 40},   // cell (0,0)
		3: {X: 150, Y: 10},  // cell (1,0)
		4: {X: -10, Y: -10}, // cell (-1,-1): negative coordinates stay exact
	}
	for id, p := range pts {
		g.Set(id, p)
	}

	if ix, iy, ok := g.CellOf(1); !ok || ix != 0 || iy != 0 {
		t.Fatalf("CellOf(1) = (%d,%d,%v), want (0,0,true)", ix, iy, ok)
	}
	if ix, iy, ok := g.CellOf(4); !ok || ix != -1 || iy != -1 {
		t.Fatalf("CellOf(4) = (%d,%d,%v), want (-1,-1,true)", ix, iy, ok)
	}
	if _, _, ok := g.CellOf(99); ok {
		t.Fatal("CellOf reported an unknown id as stored")
	}
	if got := g.CellOccupancy(0, 0); got != 2 {
		t.Fatalf("CellOccupancy(0,0) = %d, want 2", got)
	}
	if got := g.CellOccupancy(7, 7); got != 0 {
		t.Fatalf("CellOccupancy of empty cell = %d, want 0", got)
	}

	seen := map[[2]int32][]int{}
	total := 0
	g.VisitCells(func(ix, iy int32, ids []int) {
		cp := append([]int(nil), ids...) // the callback slice is reused
		seen[[2]int32{ix, iy}] = cp
		total += len(cp)
	})
	if total != g.Len() {
		t.Fatalf("VisitCells covered %d ids, grid holds %d", total, g.Len())
	}
	if got := seen[[2]int32{0, 0}]; len(got) != 2 {
		t.Fatalf("VisitCells cell (0,0) members = %v, want two", got)
	}
	for cell, ids := range seen {
		if g.CellOccupancy(cell[0], cell[1]) != len(ids) {
			t.Fatalf("cell %v: occupancy %d disagrees with members %v",
				cell, g.CellOccupancy(cell[0], cell[1]), ids)
		}
		for _, id := range ids {
			ix, iy, ok := g.CellOf(id)
			if !ok || ix != cell[0] || iy != cell[1] {
				t.Fatalf("member %d of cell %v reports cell (%d,%d)", id, cell, ix, iy)
			}
		}
	}

	// Removal keeps the introspection consistent.
	g.Remove(1)
	if got := g.CellOccupancy(0, 0); got != 1 {
		t.Fatalf("after Remove: occupancy %d, want 1", got)
	}
	if _, _, ok := g.CellOf(1); ok {
		t.Fatal("removed id still reports a cell")
	}
}

// refGrid is the map-bucketed grid the index replaced, kept as the
// reference for the bookkeeping the index must reproduce: bucket order
// under swap-removal, cell coordinates and Query's visiting order.
type refGrid struct {
	cell  float64
	cells map[cellKey][]int
	where map[int]cellKey
	pts   map[int]Point
}

func newRefGrid(cell float64) *refGrid {
	return &refGrid{cell: cell, cells: map[cellKey][]int{}, where: map[int]cellKey{}, pts: map[int]Point{}}
}

func (r *refGrid) key(p Point) cellKey {
	return cellKey{int32(math.Floor(p.X / r.cell)), int32(math.Floor(p.Y / r.cell))}
}

func (r *refGrid) unlink(id int) {
	k := r.where[id]
	b := r.cells[k]
	i := slices.Index(b, id)
	b[i] = b[len(b)-1]
	b = b[:len(b)-1]
	if len(b) == 0 {
		delete(r.cells, k)
	} else {
		r.cells[k] = b
	}
}

func (r *refGrid) set(id int, p Point) {
	k := r.key(p)
	if old, ok := r.where[id]; ok && old != k {
		r.unlink(id)
		r.cells[k] = append(r.cells[k], id)
	} else if !ok {
		r.cells[k] = append(r.cells[k], id)
	}
	r.where[id] = k
	r.pts[id] = p
}

func (r *refGrid) remove(id int) {
	if _, ok := r.where[id]; ok {
		r.unlink(id)
		delete(r.where, id)
		delete(r.pts, id)
	}
}

func (r *refGrid) query(c Point, rad float64) []int {
	var out []int
	lo, hi := r.key(Point{c.X - rad, c.Y - rad}), r.key(Point{c.X + rad, c.Y + rad})
	for ix := lo.ix; ix <= hi.ix; ix++ {
		for iy := lo.iy; iy <= hi.iy; iy++ {
			for _, id := range r.cells[cellKey{ix, iy}] {
				if c.Dist2(r.pts[id]) <= rad*rad {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// checkAgainstRef compares every observable of g with the reference.
func checkAgainstRef(t *testing.T, g *Grid, ref *refGrid, ids int) {
	t.Helper()
	if g.Len() != len(ref.where) {
		t.Fatalf("Len = %d, reference %d", g.Len(), len(ref.where))
	}
	for id := 0; id < ids; id++ {
		ix, iy, ok := g.CellOf(id)
		k, want := ref.where[id]
		if ok != want || (ok && (cellKey{ix, iy}) != k) {
			t.Fatalf("CellOf(%d) = (%d,%d,%v), reference %v %v", id, ix, iy, ok, k, want)
		}
		if p, ok := g.At(id); ok != want || p != ref.pts[id] {
			t.Fatalf("At(%d) = %v %v, reference %v", id, p, ok, ref.pts[id])
		}
	}
	seen := 0
	g.VisitCells(func(ix, iy int32, got []int) {
		seen++
		if want := ref.cells[cellKey{ix, iy}]; !slices.Equal(got, want) {
			t.Fatalf("cell (%d,%d) holds %v in bucket order, reference %v", ix, iy, got, want)
		}
		if g.CellOccupancy(ix, iy) != len(got) {
			t.Fatalf("CellOccupancy(%d,%d) = %d, members %v", ix, iy, g.CellOccupancy(ix, iy), got)
		}
	})
	if seen != len(ref.cells) {
		t.Fatalf("VisitCells saw %d cells, reference %d", seen, len(ref.cells))
	}
}

// CellOf, CellOccupancy, VisitCells' bucket order and Query's order match
// the map-bucketed reference through random inserts, moves and removals
// that fill, empty and refill cells, so the index grows and deletes with
// backward shifts and buckets are recycled.
func TestGridBookkeepingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const ids = 300
		g, ref := NewGrid(100), newRefGrid(100)
		span := []float64{300, 3000, 30000}[seed%3] // few cells, many, sparse
		for op := 0; op < 4000; op++ {
			id := rng.Intn(ids)
			switch rng.Intn(5) {
			case 0, 1, 2:
				p := Point{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}
				g.Set(id, p)
				ref.set(id, p)
			default:
				g.Remove(id)
				ref.remove(id)
			}
			if op%200 == 0 {
				checkAgainstRef(t, g, ref, ids)
				c := Point{X: rng.Float64()*span - span/2, Y: rng.Float64()*span - span/2}
				if got, want := g.Query(c, 250, nil), ref.query(c, 250); !slices.Equal(got, want) {
					t.Fatalf("seed %d: Query order %v, reference %v", seed, got, want)
				}
			}
		}
		checkAgainstRef(t, g, ref, ids)
		for id := 0; id < ids; id++ {
			g.Remove(id)
		}
		if g.Len() != 0 || len(g.cells) != 0 {
			t.Fatalf("seed %d: emptied grid holds %d ids in %d cells", seed, g.Len(), len(g.cells))
		}
		for i := range g.index {
			if g.index[i].cell != 0 {
				t.Fatalf("seed %d: emptied grid keeps index slot %d", seed, i)
			}
		}
	}
}

// Two points a billion metres apart occupy two cells; the grid's memory is
// bounded by its occupied cells, not by the area between them.
func TestGridFarApartStaysSmall(t *testing.T) {
	g := NewGrid(250)
	far := []Point{{X: -5e8, Y: -5e8}, {X: 5e8, Y: 5e8}}
	for id, p := range far {
		g.Set(id, p)
	}
	if len(g.cells) != 2 || len(g.index) > 1<<minIndexBits || len(g.where) != 2 {
		t.Fatalf("grid of two far-apart points holds %d cells, %d index slots, %d id slots",
			len(g.cells), len(g.index), len(g.where))
	}
	for id, p := range far {
		if got := g.Query(p, 250, nil); !slices.Equal(got, []int{id}) {
			t.Fatalf("query at point %d = %v", id, got)
		}
	}
	if got := g.Query(Point{}, 1e6, nil); len(got) != 0 {
		t.Fatalf("query between the points = %v", got)
	}
}

// Negative coordinates floor to negative cells, -0 and the edges included,
// and queries across the axes agree with brute force.
func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(100)
	cases := []struct {
		p      Point
		ix, iy int32
	}{
		{Point{X: math.Copysign(0, -1), Y: 0}, 0, 0},
		{Point{X: -1e-9, Y: -1e-9}, -1, -1},
		{Point{X: -100, Y: 50}, -1, 0},
		{Point{X: -100.000001, Y: -199.99}, -2, -2},
		{Point{X: -250, Y: -300}, -3, -3},
		{Point{X: 99.999, Y: -0.5}, 0, -1},
	}
	pts := map[int]Point{}
	for id, c := range cases {
		g.Set(id, c.p)
		pts[id] = c.p
		if ix, iy, ok := g.CellOf(id); !ok || ix != c.ix || iy != c.iy {
			t.Fatalf("CellOf(%v) = (%d,%d,%v), want (%d,%d)", c.p, ix, iy, ok, c.ix, c.iy)
		}
	}
	if got := g.CellOccupancy(-1, -1); got != 1 {
		t.Fatalf("CellOccupancy(-1,-1) = %d, want 1", got)
	}
	for _, c := range []Point{{}, {X: -150, Y: -150}, {X: -260, Y: -310}, {X: 60, Y: -40}} {
		for _, r := range []float64{0, 1, 120, 400} {
			if got, want := sortedQuery(g, c, r), bruteQuery(pts, c, r); !slices.Equal(got, want) {
				t.Fatalf("query %v r=%v = %v, brute force %v", c, r, got, want)
			}
		}
	}
}
