package ndp

import (
	"math/rand"
	"testing"

	"sbr6/internal/ipv6"
)

// oracleCache is the private map-and-FIFO seen-set every node kept before
// the seen-sets became views of one table: the specification a
// FloodCache's answers and Len must match.
type oracleCache struct {
	seen  map[oracleKey]struct{}
	order []oracleKey
	cap   int
}

type oracleKey struct {
	src ipv6.Addr
	key uint32
}

func newOracleCache(capacity int) *oracleCache {
	return &oracleCache{seen: make(map[oracleKey]struct{}), cap: capacity}
}

// Seen marks (src, key) and reports whether it had been seen before.
func (f *oracleCache) Seen(src ipv6.Addr, key uint32) bool {
	k := oracleKey{src, key}
	if _, dup := f.seen[k]; dup {
		return true
	}
	f.seen[k] = struct{}{}
	f.order = append(f.order, k)
	if len(f.order) > f.cap {
		delete(f.seen, f.order[0])
		f.order = f.order[1:]
	}
	return false
}

func (f *oracleCache) Len() int { return len(f.seen) }

// tableMember is one node of driveFloodTable: its member, a cache per kind
// and the oracle each cache must match.
type tableMember struct {
	m      *Member
	caches [2]*FloodCache
	oracle [2]*oracleCache
}

// driveFloodTable interprets ops, three bytes at a time, as operations on
// the seen-sets of several members sharing one table, and fails t at the
// first answer or Len that differs from the member's oracles:
//
//   - Seen of one of 32 ids per kind (4 origins × 8 keys) at capacities
//     1–8 (and one of 20, whose ring grows before it evicts), so eviction
//     fires and evicted ids come back, half of them through one FloodID
//     memo per id shared by every member, as the receivers of one
//     delivery share it;
//   - Release of a member, after which the table holds none of its marks;
//   - a joiner, which takes the last released slot;
//   - a burst of joiners past the next 64-bit word of the bitsets.
//
// Once ops run out, every member releases and the table must be empty.
func driveFloodTable(t *testing.T, ops []byte) {
	tab := NewFloodTable()
	var live []*tableMember
	join := func(capA, capB int) {
		m := tab.Join()
		tm := &tableMember{m: m}
		for k, c := range [2]int{capA, capB} {
			tm.caches[k] = m.Cache(Kind(k+1), c)
			tm.oracle[k] = newOracleCache(c)
		}
		live = append(live, tm)
	}
	release := func(i int) {
		tm := live[i]
		tm.m.Release()
		if held := tab.Held(tm.m.Slot()); held != 0 {
			t.Fatalf("released slot %d still marks %d records", tm.m.Slot(), held)
		}
		live = append(live[:i], live[i+1:]...)
	}
	var memos [2][4][8]FloodID
	for k := range memos {
		for s := range memos[k] {
			for key := range memos[k][s] {
				memos[k][s][key] = FloodID{Src: ipv6.SiteLocal(0, uint64(s+1)), Key: uint32(key)}
			}
		}
	}
	join(3, 20)
	join(1, 8)
	for step := 0; len(ops) >= 3; step++ {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		switch op % 8 {
		case 5:
			if len(live) > 1 {
				release(int(a) % len(live))
			}
		case 6:
			join(1+int(a)%8, 1+int(b)%8)
		case 7:
			for next := (int(tab.slots)/64 + 1) * 64; int(tab.slots) <= next && len(live) < 200; {
				join(1+int(a)%8, 1+int(b)%8)
			}
		default:
			tm := live[int(a)%len(live)]
			k := int(b & 1)
			id := &memos[k][(b>>1)&3][(b>>3)&7]
			var got bool
			if op&8 != 0 {
				got = tm.caches[k].SeenID(id)
			} else {
				got = tm.caches[k].Seen(id.Src, id.Key)
			}
			if want := tm.oracle[k].Seen(id.Src, id.Key); got != want {
				t.Fatalf("step %d: slot %d kind %d Seen(%v, %d) = %v, oracle says %v",
					step, tm.m.Slot(), k+1, id.Src, id.Key, got, want)
			}
			for j := range tm.caches {
				if got, want := tm.caches[j].Len(), tm.oracle[j].Len(); got != want {
					t.Fatalf("step %d: slot %d kind %d Len = %d, oracle says %d", step, tm.m.Slot(), j+1, got, want)
				}
			}
		}
	}
	for len(live) > 0 {
		release(len(live) - 1)
	}
	if n := tab.Records(); n != 0 {
		t.Fatalf("every member released, but the table keeps %d records", n)
	}
}

// Seen-sets that share one table answer every Seen and Len exactly as
// private map-and-FIFO caches would, through eviction, departures, slot
// reuse and bitsets widening mid-run.
func TestFloodTableMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ops := make([]byte, 3*(50+r.Intn(400)))
		r.Read(ops)
		// Keep word-crossing bursts rare, so most runs stay small enough
		// for eviction to fire at every member.
		for j := 0; j < len(ops); j += 3 {
			if ops[j]%8 == 7 && r.Intn(8) != 0 {
				ops[j] &^= 7
			}
		}
		driveFloodTable(t, ops)
	}
}

func FuzzFloodTableMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 8, 1, 2, 0, 1, 4, 5, 0, 0, 6, 3, 3, 0, 2, 2})
	f.Add([]byte{7, 0, 0, 0, 70, 9, 8, 5, 9, 5, 2, 0, 6, 1, 1, 0, 3, 9})
	f.Fuzz(driveFloodTable)
}

// Two members of one table keep separate seen-sets: one member's mark
// never answers for another, and a departed member's slot comes back
// empty to its joiner.
func TestFloodTableMembersIndependent(t *testing.T) {
	tab := NewFloodTable()
	a, b := tab.Join(), tab.Join()
	ca, cb := a.Cache(1, 4), b.Cache(1, 4)
	src := ipv6.SiteLocal(0, 1)
	if ca.Seen(src, 1) || cb.Seen(src, 1) || !ca.Seen(src, 1) || !cb.Seen(src, 1) {
		t.Fatal("two members of one table share a mark")
	}
	if tab.Records() != 1 {
		t.Fatalf("one id held by two members takes %d records, want 1", tab.Records())
	}
	if other := a.Cache(2, 4); other.Seen(src, 1) {
		t.Fatal("one kind's mark answers for another")
	}
	slot := a.Slot()
	a.Release()
	c := tab.Join()
	if c.Slot() != slot {
		t.Fatalf("joiner took slot %d, want the released %d", c.Slot(), slot)
	}
	if c.Cache(1, 4).Seen(src, 1) {
		t.Fatal("a joiner inherited its slot's marks")
	}
}
