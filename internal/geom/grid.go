package geom

import "math"

// Grid is a uniform spatial hash over integer ids with associated points.
// It answers circle queries — "which stored points lie within r of p?" — by
// scanning only the cells the circle's bounding box touches, instead of every
// stored point. With a cell size on the order of the query radius, a query
// costs O(occupancy of ~3x3 cells) rather than O(n).
//
// The grid stores a snapshot position per id; callers that index moving
// objects re-bucket lazily (see radio.Medium) and widen the query radius by
// the maximum drift since the last re-bucket, so pruning never loses a true
// neighbour. Coordinates may be negative; cells extend over the whole plane.
//
// Occupied cells sit in one slice, found through an open-addressing index
// keyed by cell coordinates, so looking a cell up is one multiply and a
// short probe, with no Go map. Memory is bounded by the most cells held
// occupied at once and by the largest id, never by the area the points
// span. Ids are non-negative — attachment ordinals, node indices — and the
// grid keeps one slot per id up to the largest it has stored.
//
// The zero value is not usable; call NewGrid.
type Grid struct {
	cell float64
	n    int // stored ids

	// cells holds the occupied cells in no particular order. A cell that
	// empties is swapped out past the end, keeping its bucket's capacity
	// for the next cell that fills.
	cells []gridCell
	// index finds a cell in cells by key: linear probing from the key's
	// hash, at most half full, with backward-shift deletion so no
	// tombstone ever lengthens a probe.
	index []indexSlot
	shift uint // 64 - log2(len(index)): the hash keeps the top bits

	where []gridSlot // by id
}

type cellKey struct{ ix, iy int32 }

type gridCell struct {
	key     cellKey
	entries []gridEntry
}

type gridEntry struct {
	id int
	p  Point
}

// indexSlot points a cell key at its place in cells.
type indexSlot struct {
	key  cellKey
	cell int32 // position in cells + 1; 0 marks an empty slot
}

// gridSlot remembers which cell an id sits in and at which index of its
// bucket, so Set and Remove are O(1) via swap-removal.
type gridSlot struct {
	cell int32 // position in cells + 1; 0 = id not stored
	idx  int32
	p    Point
}

// minIndexBits sizes the index of an empty grid: 1<<minIndexBits slots.
const minIndexBits = 3

// NewGrid returns an empty grid with the given cell side length in metres.
// Non-positive cell sizes are clamped to 1.
func NewGrid(cell float64) *Grid {
	if cell <= 0 || math.IsNaN(cell) || math.IsInf(cell, 0) {
		cell = 1
	}
	return &Grid{cell: cell, index: make([]indexSlot, 1<<minIndexBits), shift: 64 - minIndexBits}
}

// Cell returns the grid's cell side length.
func (g *Grid) Cell() float64 { return g.cell }

// Len returns the number of stored ids.
func (g *Grid) Len() int { return g.n }

// keyFor maps a point to its cell coordinates.
func (g *Grid) keyFor(p Point) cellKey {
	return cellKey{int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))}
}

// home is the index slot a key's probe starts from (Fibonacci hashing of
// the packed coordinates).
func (g *Grid) home(k cellKey) int {
	packed := uint64(uint32(k.ix))<<32 | uint64(uint32(k.iy))
	return int((packed * 0x9E3779B97F4A7C15) >> g.shift)
}

// slotOf returns the index slot holding key k, or -1 when no cell has it.
func (g *Grid) slotOf(k cellKey) int {
	mask := len(g.index) - 1
	for i := g.home(k); ; i = (i + 1) & mask {
		switch s := &g.index[i]; {
		case s.cell == 0:
			return -1
		case s.key == k:
			return i
		}
	}
}

// find returns the position in cells of the cell with key k, or -1.
func (g *Grid) find(k cellKey) int {
	if i := g.slotOf(k); i >= 0 {
		return int(g.index[i].cell) - 1
	}
	return -1
}

// place records that cell c has key k in the first free slot of k's probe.
func (g *Grid) place(k cellKey, c int) {
	mask := len(g.index) - 1
	i := g.home(k)
	for g.index[i].cell != 0 {
		i = (i + 1) & mask
	}
	g.index[i] = indexSlot{key: k, cell: int32(c + 1)}
}

// addCell appends an empty cell with key k, reusing a spare bucket past
// the end of cells when there is one, and returns its position.
func (g *Grid) addCell(k cellKey) int {
	c := len(g.cells)
	if 2*(c+1) > len(g.index) {
		g.index = make([]indexSlot, 2*len(g.index))
		g.shift--
		for i := range g.cells {
			g.place(g.cells[i].key, i)
		}
	}
	if c < cap(g.cells) {
		g.cells = g.cells[:c+1]
		g.cells[c].key = k
	} else {
		g.cells = append(g.cells, gridCell{key: k})
	}
	g.place(k, c)
	return c
}

// dropCell deletes the empty cell at position c: its index slot goes by
// backward shift, the last cell moves into its place, and its bucket
// waits past the end for the next addCell.
func (g *Grid) dropCell(c int) {
	mask := len(g.index) - 1
	i := g.slotOf(g.cells[c].key)
	for j := (i + 1) & mask; g.index[j].cell != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when i lies on its probe
		// path, from its home up to j.
		if (j-g.home(g.index[j].key))&mask >= (j-i)&mask {
			g.index[i] = g.index[j]
			i = j
		}
	}
	g.index[i] = indexSlot{}

	last := len(g.cells) - 1
	spare := g.cells[c].entries[:0]
	if c != last {
		moved := g.cells[last]
		g.cells[c] = moved
		g.index[g.slotOf(moved.key)].cell = int32(c + 1)
		for _, e := range moved.entries {
			g.where[e.id].cell = int32(c + 1)
		}
	}
	g.cells[last] = gridCell{entries: spare}
	g.cells = g.cells[:last]
}

// Set inserts id at p, or moves it there if already stored. Moving within
// the same cell only updates the snapshot position. A negative id panics.
func (g *Grid) Set(id int, p Point) {
	if id < 0 {
		panic("geom: negative grid id")
	}
	key := g.keyFor(p)
	if id >= len(g.where) {
		g.where = append(g.where, make([]gridSlot, id+1-len(g.where))...)
	}
	if s := &g.where[id]; s.cell != 0 {
		if c := &g.cells[s.cell-1]; c.key == key {
			c.entries[s.idx].p = p
			s.p = p
			return
		}
		g.unlink(id)
	} else {
		g.n++
	}
	c := g.find(key)
	if c < 0 {
		c = g.addCell(key)
	}
	cl := &g.cells[c]
	g.where[id] = gridSlot{cell: int32(c + 1), idx: int32(len(cl.entries)), p: p}
	cl.entries = append(cl.entries, gridEntry{id: id, p: p})
}

// Remove deletes id from the grid; unknown ids are a no-op.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.where) || g.where[id].cell == 0 {
		return
	}
	g.unlink(id)
	g.where[id] = gridSlot{}
	g.n--
}

// unlink swap-removes a stored id from its bucket, fixing up the moved
// entry's recorded index, and drops the cell if it empties.
func (g *Grid) unlink(id int) {
	s := g.where[id]
	c := int(s.cell) - 1
	bucket := g.cells[c].entries
	last := len(bucket) - 1
	if int(s.idx) != last {
		moved := bucket[last]
		bucket[s.idx] = moved
		g.where[moved.id].idx = s.idx
	}
	g.cells[c].entries = bucket[:last]
	if last == 0 {
		g.dropCell(c)
	}
}

// At returns the stored position of id.
func (g *Grid) At(id int) (Point, bool) {
	if id < 0 || id >= len(g.where) || g.where[id].cell == 0 {
		return Point{}, false
	}
	return g.where[id].p, true
}

// CellOf returns the cell coordinates id is currently bucketed in. The
// coordinates identify the cell [ix*cell, (ix+1)*cell) x [iy*cell,
// (iy+1)*cell); two ids share a cell exactly when their coordinates match.
func (g *Grid) CellOf(id int) (ix, iy int32, ok bool) {
	if id < 0 || id >= len(g.where) || g.where[id].cell == 0 {
		return 0, 0, false
	}
	key := g.cells[g.where[id].cell-1].key
	return key.ix, key.iy, true
}

// CellOccupancy returns how many ids are bucketed in the given cell.
func (g *Grid) CellOccupancy(ix, iy int32) int {
	if c := g.find(cellKey{ix, iy}); c >= 0 {
		return len(g.cells[c].entries)
	}
	return 0
}

// VisitCells calls fn once per occupied cell with that cell's member ids in
// bucket order (insertion order until a Remove's swap-removal perturbs it).
// Cells are visited in unspecified order — callers needing cross-cell
// determinism must not depend on it. The ids slice is reused between calls;
// fn must not retain or mutate it, nor mutate the grid.
func (g *Grid) VisitCells(fn func(ix, iy int32, ids []int)) {
	var buf []int
	for _, c := range g.cells {
		buf = buf[:0]
		for _, e := range c.entries {
			buf = append(buf, e.id)
		}
		fn(c.key.ix, c.key.iy, buf)
	}
}

// Query appends to out the ids of every stored point within r of p
// (inclusive of the boundary) and returns the extended slice. Pass a reused
// buffer with out[:0] to avoid allocations. The order of appended ids is
// deterministic for a fixed sequence of Set/Remove calls but otherwise
// unspecified; callers needing a canonical order must sort.
func (g *Grid) Query(p Point, r float64, out []int) []int {
	g.Visit(p, r, func(id int) { out = append(out, id) })
	return out
}

// Visit calls fn once for every stored point within r of p (inclusive of
// the boundary), in the same unspecified-but-deterministic order as Query.
// fn must not mutate the grid.
func (g *Grid) Visit(p Point, r float64, fn func(id int)) {
	if r < 0 {
		return
	}
	r2 := r * r
	lo := g.keyFor(Point{p.X - r, p.Y - r})
	hi := g.keyFor(Point{p.X + r, p.Y + r})
	for ix := lo.ix; ix <= hi.ix; ix++ {
		for iy := lo.iy; iy <= hi.iy; iy++ {
			i := g.slotOf(cellKey{ix, iy})
			if i < 0 {
				continue
			}
			for _, e := range g.cells[g.index[i].cell-1].entries {
				if p.Dist2(e.p) <= r2 {
					fn(e.id)
				}
			}
		}
	}
}
