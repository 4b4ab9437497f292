// Package pool provides per-simulation size-class buffer pools for the
// zero-alloc wire path: frame buffers are checked out by encoded size,
// shared across every receiver of a broadcast, and returned to the pool
// once the last delivery completes, so steady-state flood relays recycle
// a bounded working set instead of allocating per transmission (the
// mbuf discipline of trex-emu, kept strictly per-owner).
//
// A Pool is deliberately not safe for concurrent use and owns no global
// state: every Pool belongs to exactly one single-threaded simulation
// (in practice one radio.Medium), the same ownership discipline the
// sharded-core roadmap item depends on — per-shard pools need no locks
// precisely because nothing here is shared.
//
// Size classes are the powers of two from MinClass to MaxClass, derived
// arithmetically rather than from a table so the package carries no
// package-level state at all (the globalstate analyzer holds the whole
// sim path to that bar). Requests beyond MaxClass fall back to plain
// allocation and are never pooled; they are counted so a workload whose
// frames outgrow the classes is visible in Stats rather than silently
// unpooled.
package pool

import "math/bits"

// Size-class bounds. MinClass comfortably holds the smallest control
// frames (an empty-route packet is 37 bytes); MaxClass exceeds the wire
// codec's 4096-byte blob limit so any legal frame fits a class.
const (
	MinClass = 64
	MaxClass = 8192
)

// nClasses is the number of power-of-two classes in [MinClass, MaxClass].
const nClasses = 8 // 64, 128, 256, 512, 1024, 2048, 4096, 8192

// poisonByte fills released buffers in poison mode. The value is chosen
// to be an invalid leading byte for most decoded fields, so a consumer
// holding a frame past its release sees garbage immediately instead of
// stale-but-plausible bytes.
const poisonByte = 0xDB

// Stats counts pool traffic. Live and HighWater are the leak-test
// surface: Live must return to zero once a simulation drains (every Get
// matched by a Put), and HighWater bounds the working set — it tracks
// frames in flight, not run length.
type Stats struct {
	Gets      uint64 // buffers checked out (including oversize fallbacks)
	Puts      uint64 // buffers returned
	Misses    uint64 // Gets served by a fresh allocation (class empty)
	Oversize  uint64 // Gets beyond MaxClass (plain allocation, not poolable)
	Live      int    // currently checked out (Gets - Puts)
	HighWater int    // maximum Live ever observed
}

// Pool is a set of per-size-class free lists of byte buffers.
type Pool struct {
	free   [nClasses][][]byte
	poison bool
	stats  Stats
}

// New returns an empty pool.
func New() *Pool { return &Pool{} }

// SetPoison enables or disables poison-on-release: every returned buffer
// is filled with a marker byte up to its capacity, so any consumer that
// retained a frame slice past its release point reads garbage instead of
// silently working on recycled memory. Debug/test mode — it touches every
// released byte.
func (p *Pool) SetPoison(on bool) { p.poison = on }

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats { return p.stats }

// classFor returns the smallest class index whose size holds n, or -1
// when n exceeds MaxClass.
func classFor(n int) int {
	if n <= MinClass {
		return 0
	}
	if n > MaxClass {
		return -1
	}
	// Smallest power of two >= n, expressed as a class index above MinClass.
	return bits.Len(uint(n-1)) - 6 // MinClass == 1<<6
}

// putClass returns the largest class index whose size fits within cap c,
// or -1 when c is below MinClass. Classifying returns by capacity (not by
// the class a buffer was handed out as) lets buffers that grew past their
// original class migrate upward instead of being dropped.
func putClass(c int) int {
	if c < MinClass {
		return -1
	}
	k := bits.Len(uint(c)) - 7 // largest power of two <= c, as a class index
	if k >= nClasses {
		k = nClasses - 1
	}
	return k
}

// Get returns a zero-length buffer with capacity at least n. Buffers come
// from the matching size class when one is free; otherwise a fresh buffer
// of the full class size is allocated (so it recycles cleanly later).
// Requests beyond MaxClass are plain allocations.
func (p *Pool) Get(n int) []byte {
	if n < 0 {
		n = 0
	}
	p.stats.Gets++
	p.stats.Live++
	if p.stats.Live > p.stats.HighWater {
		p.stats.HighWater = p.stats.Live
	}
	c := classFor(n)
	if c < 0 {
		p.stats.Oversize++
		return make([]byte, 0, n)
	}
	if l := len(p.free[c]); l > 0 {
		b := p.free[c][l-1]
		p.free[c][l-1] = nil
		p.free[c] = p.free[c][:l-1]
		return b[:0]
	}
	p.stats.Misses++
	return make([]byte, 0, MinClass<<c)
}

// Put returns a buffer to the pool; a nil buffer is ignored. The buffer is
// classified by capacity; capacities below MinClass are dropped. Put always
// balances a preceding Get in the Live accounting, so a drained simulation
// proves its release discipline with Live == 0.
func (p *Pool) Put(b []byte) {
	if b == nil {
		return
	}
	p.stats.Puts++
	p.stats.Live--
	if p.poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	c := putClass(cap(b))
	if c < 0 {
		return
	}
	p.free[c] = append(p.free[c], b)
}
