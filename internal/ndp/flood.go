package ndp

import (
	"slices"

	"sbr6/internal/ipv6"
)

// Kind names a family of floods whose ids a FloodTable keeps apart: the
// same (origin, key) seen as an AREQ and as an RREQ are two ids.
type Kind uint8

// FloodTable holds the flood seen-sets of every node in one region as one
// table. It keeps one record per remembered (kind, origin, key), holding a
// bitset of the nodes' slots, so the receivers of one delivery test bits
// of one record instead of probing one map each. Records and their bitsets
// live in arenas whose freed entries are reused, so a new flood allocates
// nothing once the arenas have grown to the region's working set. A node
// joins with Join; each of its FloodCaches is a view of the table with
// exactly the answers and the FIFO eviction of a private bounded set.
//
// A table is single-threaded, like the simulator region that owns it.
type FloodTable struct {
	index map[floodKey]int32
	recs  []floodRecord
	// bits holds record r's bitset at bits[r*words : (r+1)*words]; a slot
	// s is bit s&63 of word s>>6.
	bits  []uint64
	words int
	free  []int32 // freed record indices, reused last-in first-out

	slots     int32   // slots ever handed out
	freeSlots []int32 // slots released by departed nodes
}

// floodKey is a record's identity. tag folds liveTag, the kind and the
// 32-bit key into one word, so a freed record's zero key never matches a
// live one.
type floodKey struct {
	src ipv6.Addr
	tag uint64
}

const liveTag = 1 << 40

type floodRecord struct {
	key   floodKey
	count int32 // slots whose bit is set; the record is freed at zero
}

// NewFloodTable returns an empty table.
func NewFloodTable() *FloodTable {
	return &FloodTable{index: make(map[floodKey]int32), words: 1}
}

// Records reports the number of ids some member still remembers.
func (t *FloodTable) Records() int { return len(t.index) }

// Held reports how many records have slot's bit set: the ids the member
// at slot remembers, over all its kinds.
func (t *FloodTable) Held(slot int) int {
	held := 0
	for r := range t.recs {
		if t.bits[r*t.words+slot>>6]&(1<<(slot&63)) != 0 {
			held++
		}
	}
	return held
}

// Join adds a member, reusing a slot a departed member released when
// there is one. A slot past the bitsets' width widens every record's
// bitset by the words it needs.
func (t *FloodTable) Join() *Member {
	var slot int32
	if n := len(t.freeSlots); n > 0 {
		slot = t.freeSlots[n-1]
		t.freeSlots = t.freeSlots[:n-1]
	} else {
		slot = t.slots
		t.slots++
		if words := int(slot>>6) + 1; words > t.words {
			t.widen(words)
		}
	}
	return &Member{t: t, slot: slot}
}

// widen re-lays the bitset arena at a stride of words.
func (t *FloodTable) widen(words int) {
	bits := make([]uint64, len(t.recs)*words)
	for r := range t.recs {
		copy(bits[r*words:], t.bits[r*t.words:(r+1)*t.words])
	}
	t.bits, t.words = bits, words
}

// alloc returns a fresh record for k, reusing a freed one when it can.
// A freed record's count fell to zero, so its bits are already clear.
func (t *FloodTable) alloc(k floodKey) int32 {
	var r int32
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = int32(len(t.recs))
		t.recs = append(t.recs, floodRecord{})
		// The arena never shrinks, so the words past its length are zero.
		t.bits = slices.Grow(t.bits, t.words)[:len(t.bits)+t.words]
	}
	t.recs[r].key = k
	t.index[k] = r
	return r
}

// clear removes one member's mark from record r and frees the record once
// no member remembers it.
func (t *FloodTable) clear(r int32, word int, mask uint64) {
	t.bits[int(r)*t.words+word] &^= mask
	rec := &t.recs[r]
	if rec.count--; rec.count == 0 {
		delete(t.index, rec.key)
		rec.key = floodKey{}
		t.free = append(t.free, r)
	}
}

// Member is one node's place in a FloodTable: a slot in every record's
// bitset, shared by the node's caches of every kind.
type Member struct {
	t      *FloodTable
	slot   int32
	caches []*FloodCache
}

// Slot returns the member's slot, which Release hands to the next joiner.
func (m *Member) Slot() int { return int(m.slot) }

// Cache returns the member's seen-set for kind, remembering up to
// capacity ids (1024 when capacity is not positive).
func (m *Member) Cache(kind Kind, capacity int) *FloodCache {
	if capacity <= 0 {
		capacity = 1024
	}
	c := &FloodCache{t: m.t, tag: liveTag | uint64(kind)<<32,
		word: int(m.slot >> 6), mask: 1 << (m.slot & 63), cap: capacity}
	m.caches = append(m.caches, c)
	return c
}

// Release forgets every id the member's caches remember, frees the
// records no other member holds and hands the slot to the next joiner.
// The caches are unusable afterwards. Release is idempotent.
func (m *Member) Release() {
	if m.t == nil {
		return
	}
	for _, c := range m.caches {
		for c.n > 0 {
			c.evict()
		}
		c.t, c.ring = nil, nil
	}
	m.t.freeSlots = append(m.t.freeSlots, m.slot)
	m.t, m.caches = nil, nil
}

// FloodCache is one node's bounded seen-set for one kind of flood, used
// to suppress duplicate flood rebroadcasts: the node's AREQ, RREQ,
// DNS-control and audit floods each have one, and the attack package's
// adversaries keep standalone ones. It remembers at most its capacity ids
// and evicts the oldest first. Over a shared FloodTable it stores only a
// FIFO ring of record indices; the ids live in the table's records.
type FloodCache struct {
	t    *FloodTable
	tag  uint64 // liveTag | kind<<32
	word int    // the member's bitset word and bit
	mask uint64
	ring []int32 // record indices, oldest at head
	head int
	n    int
	cap  int
}

// NewFloodCache creates a standalone cache remembering up to capacity
// flood ids: the one member of a table of its own.
func NewFloodCache(capacity int) *FloodCache {
	return NewFloodTable().Join().Cache(0, capacity)
}

// FloodID names one flood to a seen-set: its origin and 32-bit key. It
// also memoizes the table record it was last found at, so the receivers
// of one delivery, holding one FloodID between them, look the record up
// once. A memo is checked against the record's key before use, so a stale
// or foreign one costs a lookup and never a wrong answer.
type FloodID struct {
	Src ipv6.Addr
	Key uint32
	rec int32 // record index + 1; 0 = not looked up
}

// Seen marks (src, key) and reports whether it had been seen before.
func (c *FloodCache) Seen(src ipv6.Addr, key uint32) bool {
	id := FloodID{Src: src, Key: key}
	return c.SeenID(&id)
}

// SeenID is Seen for id, reading and refreshing its record memo.
func (c *FloodCache) SeenID(id *FloodID) bool {
	t := c.t
	k := floodKey{src: id.Src, tag: c.tag | uint64(id.Key)}
	r := id.rec - 1
	if r < 0 || int(r) >= len(t.recs) || t.recs[r].key != k {
		var ok bool
		if r, ok = t.index[k]; !ok {
			r = -1
		}
	}
	if r >= 0 && t.bits[int(r)*t.words+c.word]&c.mask != 0 {
		id.rec = r + 1
		return true
	}
	if c.n == c.cap {
		// The oldest id goes first. It is not id, whose bit is clear, so
		// evicting it cannot free r.
		c.evict()
	}
	if r < 0 {
		r = t.alloc(k)
	}
	t.bits[int(r)*t.words+c.word] |= c.mask
	t.recs[r].count++
	c.push(r)
	id.rec = r + 1
	return false
}

// Len reports the number of remembered ids.
func (c *FloodCache) Len() int { return c.n }

// push appends record r to the ring, growing it by doubling up to the
// capacity, so a cache holds memory for the ids it remembers only.
func (c *FloodCache) push(r int32) {
	if c.n == len(c.ring) {
		ring := make([]int32, min(max(8, 2*len(c.ring)), c.cap))
		for i := range c.n {
			ring[i] = c.ring[c.at(i)]
		}
		c.ring, c.head = ring, 0
	}
	c.ring[c.at(c.n)] = r
	c.n++
}

// evict forgets the oldest remembered id.
func (c *FloodCache) evict() {
	r := c.ring[c.head]
	c.head = c.at(1)
	c.n--
	c.t.clear(r, c.word, c.mask)
}

// at returns the ring index i places after the head.
func (c *FloodCache) at(i int) int {
	if i += c.head; i >= len(c.ring) {
		i -= len(c.ring)
	}
	return i
}
