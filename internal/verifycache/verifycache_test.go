package verifycache

import (
	"fmt"
	"math/rand"
	"testing"

	"sbr6/internal/identity"
)

func newIdent(t *testing.T, seed int64) *identity.Identity {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, rand.New(rand.NewSource(seed)), "")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSigMemoAgreesWithDirect(t *testing.T) {
	c := New(64)
	id := newIdent(t, 3)
	msg := []byte("the message")
	sig := id.Sign(msg)

	if !c.VerifySig(id.Pub, msg, sig) || !c.VerifySig(id.Pub, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	// A cached positive for (pk, msg, sig) must not leak to any tampered
	// variant: each differing tuple is its own key.
	bad := append([]byte(nil), sig...)
	bad[0] ^= 1
	if c.VerifySig(id.Pub, msg, bad) {
		t.Fatal("tampered signature accepted")
	}
	if c.VerifySig(id.Pub, []byte("the message2"), sig) {
		t.Fatal("signature accepted over different message")
	}
	if c.VerifySig(newIdent(t, 4).Pub, msg, sig) {
		t.Fatal("signature accepted under different key")
	}
	// And the cached negatives stay negative.
	if c.VerifySig(id.Pub, msg, bad) {
		t.Fatal("cached negative flipped")
	}
	st := c.Stats()
	if st.SigHits != 2 || st.SigMisses != 4 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

// Two messages that share a slot evict each other, and each is still
// answered with its own signature: a hit compares the whole stored
// message, never just the slot.
func TestSignMemoSharedSlot(t *testing.T) {
	c := New(64)
	id := newIdent(t, 7)
	a := []byte("hop 1")
	var b []byte
	for i := 2; b == nil; i++ {
		if m := []byte(fmt.Sprintf("hop %d", i)); signSlot(m) == signSlot(a) {
			b = m
		}
	}
	for i, msg := range [][]byte{a, b, a, b, b} {
		if got := c.Sign(id.Priv, msg); string(got) != string(id.Sign(msg)) {
			t.Fatalf("sign %d (%q): memo returned another message's signature", i, msg)
		}
	}
	if st := c.Stats(); st.SignMisses != 4 || st.SignHits != 1 {
		t.Fatalf("stats = %+v, want 4 sign misses and 1 hit", st)
	}
	if c.Len() != 0 || c.Stats().Hits()+c.Stats().Misses() != 0 {
		t.Fatal("signing counted as a check")
	}
}

func TestChainMemo(t *testing.T) {
	c := New(64)
	d := NewChainDigest()
	d.Bytes([]byte("chain"))
	k := d.Key()

	if _, _, ok := c.ChainLookup(k); ok {
		t.Fatal("phantom hit on empty cache")
	}
	stored := errChain("nope")
	c.ChainStore(k, stored, 5)
	err, verifies, ok := c.ChainLookup(k)
	if !ok || err != stored || verifies != 5 {
		t.Fatalf("lookup = (%v, %d, %v)", err, verifies, ok)
	}
	// nil error (accepted chain) round-trips too.
	d2 := NewChainDigest()
	d2.Bytes([]byte("chain2"))
	c.ChainStore(d2.Key(), nil, 3)
	if err, verifies, ok := c.ChainLookup(d2.Key()); !ok || err != nil || verifies != 3 {
		t.Fatalf("nil-error lookup = (%v, %d, %v)", err, verifies, ok)
	}
}

type errChain string

func (e errChain) Error() string { return string(e) }

// Re-storing an existing key must replace the entry cleanly: Len stays
// bounded, the latest value wins, and later evictions never remove the
// live map entry via an orphaned list node.
func TestChainStoreReplacesExistingKey(t *testing.T) {
	c := New(2)
	d := NewChainDigest()
	d.Bytes([]byte("dup"))
	k := d.Key()
	c.ChainStore(k, errChain("first"), 1)
	c.ChainStore(k, errChain("second"), 2)
	if c.Len() != 1 {
		t.Fatalf("len = %d after double store, want 1", c.Len())
	}
	if err, verifies, ok := c.ChainLookup(k); !ok || err.Error() != "second" || verifies != 2 {
		t.Fatalf("lookup = (%v, %d, %v), want latest value", err, verifies, ok)
	}
	// Fill past capacity; the replaced key was just used, so it must
	// survive one eviction and still resolve through the map.
	d2 := NewChainDigest()
	d2.Bytes([]byte("other1"))
	c.ChainStore(d2.Key(), nil, 0)
	d3 := NewChainDigest()
	d3.Bytes([]byte("other2"))
	c.ChainStore(d3.Key(), nil, 0)
	if c.Len() != 2 {
		t.Fatalf("len = %d after evictions, want cap 2", c.Len())
	}
	if _, _, ok := c.ChainLookup(d3.Key()); !ok {
		t.Fatal("newest entry missing after eviction")
	}
}

func TestLRUBoundAndEviction(t *testing.T) {
	c := New(4)
	id := newIdent(t, 5)
	msgs := make([][]byte, 6)
	sigs := make([][]byte, 6)
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("message %d", i))
		sigs[i] = id.Sign(msgs[i])
		c.VerifySig(id.Pub, msgs[i], sigs[i])
	}
	verify := func(i int) { c.VerifySig(id.Pub, msgs[i], sigs[i]) }
	if c.Len() != 4 {
		t.Fatalf("len = %d, want cap 4", c.Len())
	}
	if c.Stats().Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", c.Stats().Evictions)
	}
	// The two oldest entries are gone (miss), the newest four are hits.
	base := c.Stats()
	for i := 2; i < len(msgs); i++ {
		verify(i)
	}
	if got := c.Stats().SigHits - base.SigHits; got != 4 {
		t.Fatalf("hits on recent entries = %d, want 4", got)
	}
	// msgs[2] was just touched; inserting two more must evict msgs[3]
	// before msgs[2] (LRU order, not FIFO).
	verify(2)
	verify(0)
	verify(1)
	base = c.Stats()
	verify(2)
	if c.Stats().SigHits == base.SigHits {
		t.Fatal("recently used entry was evicted before older ones")
	}
}

func TestNilCacheComputesDirectly(t *testing.T) {
	var c *Cache
	id := newIdent(t, 6)
	msg := []byte("m")
	if !c.VerifySig(id.Pub, msg, id.Sign(msg)) {
		t.Fatal("nil cache rejected a valid signature")
	}
	if _, _, ok := c.ChainLookup(Key{}); ok {
		t.Fatal("nil cache reported a chain hit")
	}
	c.ChainStore(Key{}, nil, 1) // must not panic
	if got := c.Sign(id.Priv, msg); string(got) != string(id.Sign(msg)) {
		t.Fatal("nil cache signed differently from the key")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported state")
	}
}

// Length-prefixing means adjacent variable-length fields can never alias:
// ("ab","c") and ("a","bc") must produce different keys even though their
// concatenation is identical.
func TestDigestFieldBoundaries(t *testing.T) {
	d1 := NewChainDigest()
	d1.Bytes([]byte("ab"))
	d1.Bytes([]byte("c"))
	d2 := NewChainDigest()
	d2.Bytes([]byte("a"))
	d2.Bytes([]byte("bc"))
	if d1.Key() == d2.Key() {
		t.Fatal("field boundaries alias")
	}
	// Different domain tags never alias either.
	da := NewDigest(0x01)
	da.Bytes([]byte("x"))
	db := NewDigest(0x02)
	db.Bytes([]byte("x"))
	if da.Key() == db.Key() {
		t.Fatal("domain tags alias")
	}
}

func TestStatsAggregate(t *testing.T) {
	a := Stats{SigHits: 1, SigMisses: 2, ChainHits: 3, Evictions: 4, SignHits: 7}
	b := Stats{SigHits: 5, ChainMisses: 6, SignHits: 1, SignMisses: 8}
	a.Add(b)
	if a.SigHits != 6 || a.SigMisses != 2 || a.ChainHits != 3 || a.ChainMisses != 6 || a.Evictions != 4 ||
		a.SignHits != 8 || a.SignMisses != 8 {
		t.Fatalf("aggregate = %+v", a)
	}
	if a.Hits() != 6+3 || a.Misses() != 2+6 {
		t.Fatalf("totals: hits=%d misses=%d", a.Hits(), a.Misses())
	}
}
