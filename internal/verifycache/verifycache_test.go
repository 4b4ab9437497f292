package verifycache

import (
	"fmt"
	"testing"

	"sbr6/internal/draw"
	"sbr6/internal/identity"
)

func newIdent(t *testing.T, seed int64) *identity.Identity {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, draw.New(seed, draw.Key, 0), "")
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
	if st := c.Stats(); c.Len() != 0 || st.SigHits+st.SigMisses != 0 {
		t.Fatal("signing counted as a check")
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
	d1 := newDigest(tagSig)
	d1.bytes([]byte("ab"))
	d1.bytes([]byte("c"))
	d2 := newDigest(tagSig)
	d2.bytes([]byte("a"))
	d2.bytes([]byte("bc"))
	if d1.sum() == d2.sum() {
		t.Fatal("field boundaries alias")
	}
	// Different domain tags never alias either.
	da := newDigest(0x01)
	da.bytes([]byte("x"))
	db := newDigest(0x02)
	db.bytes([]byte("x"))
	if da.sum() == db.sum() {
		t.Fatal("domain tags alias")
	}
}

func TestStatsAggregate(t *testing.T) {
	a := Stats{SigHits: 1, SigMisses: 2, Evictions: 4, SignHits: 7}
	b := Stats{SigHits: 5, Evictions: 3, SignHits: 1, SignMisses: 8}
	a.Add(b)
	if a != (Stats{SigHits: 6, SigMisses: 2, Evictions: 7, SignHits: 8, SignMisses: 8}) {
		t.Fatalf("aggregate = %+v", a)
	}
}
