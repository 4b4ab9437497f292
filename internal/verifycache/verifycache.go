// Package verifycache memoizes the signature test behind every
// verification procedure in the paper (Sections 3.1/3.3 check (ii)) and
// whole route-record chains, in one bounded per-node LRU.
//
// Check (i), the CGA binding test addr == H(PK, rn), is not memoized:
// it is one SHA-256 and a compare, cheaper than the digest and map
// lookup a memo hit costs, so every caller runs cga.Verify directly. A
// signature verification costs hundreds of times that digest, which is
// where the memo pays.
//
// Why this is safe under the paper's adversary model: both memoized checks
// are pure functions of their full input. Cache keys are SHA-256 digests
// over every byte the check reads (domain-separated per check kind), so a
// lookup can only hit when the key, message and signature (and, for a
// chain, every address and modifier) are all identical to an earlier
// check — in which case recomputing would return the same verdict. An
// adversary who wants the cache to return a stale "valid" for forged
// content needs a SHA-256 collision; replaying an old valid message hits
// the cache but is exactly as valid as it was the first time (replay
// defense stays where it belongs, in the challenge/sequence fields that
// are part of the signed content and therefore part of the key). Negative
// results are cached too: re-presenting a rejected forgery costs one
// digest instead of one signature verification, which blunts rather than
// enables flooding with invalid traffic.
//
// What is deliberately NOT memoizable: anything keyed by less than the
// full verified content (e.g. "this address was fine recently"), and any
// check whose verdict depends on mutable local state (pending challenges,
// route caches, credit standing). Those stay outside this package.
//
// The cache also remembers the signatures its owner made (Sign). A relay
// attests only (its address, the source's sequence number), and every
// node's request counter starts at 1, so a relay signs byte-identical
// messages again for every source whose counter reaches the same value.
// Every suite in package identity signs deterministically (Ed25519, RSA
// PKCS#1 v1.5), and the memo keys on the exact signed bytes, so a hit
// returns exactly the signature the private key would compute. The
// memo is a small direct-mapped table, allocated on the owner's first
// signature; it is on and off with the rest of the cache.
//
// The cache is per node and the simulator drives each node from a single
// goroutine, so there is no locking; parallel batch replicates build
// disjoint caches.
package verifycache

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"

	"sbr6/internal/identity"
)

// DefaultEntries bounds the cache when the owner does not choose a size.
// Entries are ~100 bytes, so the default costs at most ~1.6 MB per node
// and in practice far less: the map fills only with content the node
// actually verified.
const DefaultEntries = 16384

// Key is a content digest identifying one memoized check.
type Key [sha256.Size]byte

// Domain-separation tags; hashed into the key so the two check kinds can
// never alias.
const (
	tagSig   = 0x02
	tagChain = 0x03
)

// Stats counts cache traffic. Hits are primitive operations avoided;
// misses are operations actually performed through the cache. A chain hit
// stands for the whole sequence of per-hop checks the chain would redo.
// SignHits and SignMisses count the signing memo: a miss is one primitive
// signature, a hit one avoided.
type Stats struct {
	SigHits, SigMisses     uint64
	ChainHits, ChainMisses uint64
	Evictions              uint64
	SignHits, SignMisses   uint64
}

// Hits sums hits over all check kinds; signing is not a check and stays
// out.
func (s Stats) Hits() uint64 { return s.SigHits + s.ChainHits }

// Misses sums misses over all check kinds; signing stays out.
func (s Stats) Misses() uint64 { return s.SigMisses + s.ChainMisses }

// Add accumulates other into s (for aggregating per-node caches).
func (s *Stats) Add(other Stats) {
	s.SigHits += other.SigHits
	s.SigMisses += other.SigMisses
	s.ChainHits += other.ChainHits
	s.ChainMisses += other.ChainMisses
	s.Evictions += other.Evictions
	s.SignHits += other.SignHits
	s.SignMisses += other.SignMisses
}

type entry struct {
	key Key
	ok  bool
	// Chain entries carry the memoized error and how many logical
	// signature verifications the full chain walk performed, so a hit can
	// replay the verifier's accounting exactly.
	err      error
	verifies int

	prev, next *entry
}

// Cache is the bounded LRU. All methods are nil-receiver safe: a nil
// *Cache computes every check directly and records nothing, which is how
// "cache off" runs share the same call sites.
type Cache struct {
	cap   int
	m     map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	stats Stats

	// signs is the owner's signing memo, nil until its first Sign.
	signs *signMemo
}

// New creates a cache bounded to capacity entries (DefaultEntries when
// capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	return &Cache{cap: capacity, m: make(map[Key]*entry)}
}

// Len reports the number of memoized checks.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	return len(c.m)
}

// Stats returns a copy of the traffic counters (zero for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.stats
}

// --- LRU plumbing ---

func (c *Cache) lookup(k Key) (*entry, bool) {
	e, ok := c.m[k]
	if ok {
		c.moveToFront(e)
	}
	return e, ok
}

func (c *Cache) insert(e *entry) {
	// Replacing an existing key must unlink its old node first, or the
	// orphan would later be evicted and delete the live map entry.
	if old, ok := c.m[e.key]; ok {
		c.unlink(old)
		delete(c.m, old.key)
	}
	c.m[e.key] = e
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	if len(c.m) > c.cap {
		victim := c.tail
		c.unlink(victim)
		delete(c.m, victim.key)
		c.stats.Evictions++
	}
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// --- memoized checks ---

// VerifySig reports whether sig is pk's valid signature over msg,
// memoizing under a digest of (pk, msg, sig).
func (c *Cache) VerifySig(pk identity.PublicKey, msg, sig []byte) bool {
	if c == nil {
		return pk.Verify(msg, sig)
	}
	d := NewDigest(tagSig)
	d.Bytes(pk.Bytes())
	d.Bytes(msg)
	d.Bytes(sig)
	k := d.Key()
	if e, ok := c.lookup(k); ok {
		c.stats.SigHits++
		return e.ok
	}
	c.stats.SigMisses++
	ok := pk.Verify(msg, sig)
	c.insert(&entry{key: k, ok: ok})
	return ok
}

// ChainLookup returns the memoized verdict for a whole verified chain
// (route-record walk): the stored error, how many logical signature
// verifications the original walk counted, and whether the key was
// present.
func (c *Cache) ChainLookup(k Key) (err error, verifies int, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	e, present := c.lookup(k)
	if !present {
		c.stats.ChainMisses++
		return nil, 0, false
	}
	c.stats.ChainHits++
	return e.err, e.verifies, true
}

// ChainStore memoizes a chain verdict under k. verifies is the number of
// logical signature verifications the walk performed, replayed into the
// verifier's counters on a later hit so cached and uncached runs account
// identically.
func (c *Cache) ChainStore(k Key, err error, verifies int) {
	if c == nil {
		return
	}
	c.insert(&entry{key: k, err: err, verifies: verifies})
}

// --- signing memo ---

// signSlots bounds the signing memo. A relay's repeated hop attestations
// differ only in the trailing sequence number, which signSlot spreads
// over distinct slots, so the table keeps the signatures of about eight
// recent sequence numbers: about 1 KiB per node with Ed25519.
const signSlots = 8

// signMemo is a direct-mapped table of the owner's latest signatures.
type signMemo [signSlots]signed

type signed struct {
	msg string // the signed bytes: the whole key
	sig []byte
}

// Sign returns priv's signature over msg, reusing the signature already
// made for identical bytes. A Cache signs for one key, its owner's, which
// Identity.Regenerate keeps when the address changes. A returned
// signature is handed out again on later hits, so callers must not
// modify it.
func (c *Cache) Sign(priv identity.PrivateKey, msg []byte) []byte {
	if c == nil {
		return priv.Sign(msg)
	}
	if c.signs == nil {
		c.signs = new(signMemo)
	}
	s := &c.signs[signSlot(msg)]
	if s.sig != nil && s.msg == string(msg) {
		c.stats.SignHits++
		return s.sig
	}
	c.stats.SignMisses++
	sig := priv.Sign(msg)
	*s = signed{msg: string(msg), sig: sig}
	return sig
}

// signSlot hashes msg with 32-bit FNV-1a. Its last step xors in the final
// byte and multiplies by an odd prime, so messages that differ only in
// the low three bits of their last byte, such as hop attestations for
// consecutive sequence numbers, land in different slots.
func signSlot(msg []byte) int {
	h := fnv.New32a()
	_, _ = h.Write(msg) // a hash.Hash never returns a write error
	return int(h.Sum32() % signSlots)
}

// --- key construction ---

// Digest builds a cache key over a sequence of fields. Variable-length
// fields are length-prefixed so adjacent fields can never alias
// ("ab"+"c" vs "a"+"bc"), and every digest starts with a kind tag.
type Digest struct {
	buf []byte
}

// NewDigest starts a key over the given domain tag.
func NewDigest(tag byte) *Digest { return &Digest{buf: []byte{tag}} }

// NewChainDigest starts a chain-kind key. The owning layer hashes in the
// full content its chain walk reads (core's route-record key covers the
// source identity, sequence number and every hop attestation).
func NewChainDigest() *Digest { return NewDigest(tagChain) }

// Bytes appends a length-prefixed variable-length field.
func (d *Digest) Bytes(b []byte) {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(b)))
	d.buf = append(d.buf, n[:]...)
	d.buf = append(d.buf, b...)
}

// U64 appends a fixed-width 64-bit field.
func (d *Digest) U64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.buf = append(d.buf, b[:]...)
}

// U32 appends a fixed-width 32-bit field.
func (d *Digest) U32(v uint32) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	d.buf = append(d.buf, b[:]...)
}

// Key finalizes the digest.
func (d *Digest) Key() Key { return Key(sha256.Sum256(d.buf)) }
