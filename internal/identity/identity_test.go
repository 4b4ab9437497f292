package identity

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"sbr6/internal/cga"
)

func newEd(t testing.TB, seed int64) *Identity {
	t.Helper()
	id, err := New(SuiteEd25519, rand.New(rand.NewSource(seed)), "host")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for _, suite := range []Suite{SuiteEd25519, SuiteRSA1024} {
		suite := suite
		t.Run(suite.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			id, err := New(suite, rng, "a")
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("route request 42")
			sig := id.Sign(msg)
			if !id.Pub.Verify(msg, sig) {
				t.Fatal("signature does not verify")
			}
			if id.Pub.Verify([]byte("route request 43"), sig) {
				t.Fatal("signature verified for altered message")
			}
			sig[0] ^= 0xff
			if id.Pub.Verify(msg, sig) {
				t.Fatal("corrupted signature verified")
			}
		})
	}
}

func TestCrossKeyRejection(t *testing.T) {
	a, b := newEd(t, 1), newEd(t, 2)
	msg := []byte("hello")
	if b.Pub.Verify(msg, a.Sign(msg)) {
		t.Fatal("signature verified under wrong key")
	}
}

func TestPublicKeySerializationRoundTrip(t *testing.T) {
	for _, suite := range []Suite{SuiteEd25519, SuiteRSA1024} {
		suite := suite
		t.Run(suite.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			id, err := New(suite, rng, "")
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParsePublicKey(suite, id.Pub.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("serialized key check")
			if !parsed.Verify(msg, id.Sign(msg)) {
				t.Fatal("parsed key fails to verify")
			}
			if parsed.Suite() != suite {
				t.Fatalf("parsed suite = %v, want %v", parsed.Suite(), suite)
			}
		})
	}
}

func TestParsePublicKeyErrors(t *testing.T) {
	if _, err := ParsePublicKey(SuiteEd25519, []byte("short")); err == nil {
		t.Fatal("short ed25519 key accepted")
	}
	if _, err := ParsePublicKey(SuiteRSA1024, []byte("garbage")); err == nil {
		t.Fatal("garbage RSA key accepted")
	}
	if _, err := ParsePublicKey(Suite(99), nil); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if _, err := GenerateKey(Suite(99), nil); err == nil {
		t.Fatal("unknown suite keygen accepted")
	}
}

func TestIdentityAddressIsBoundCGA(t *testing.T) {
	id := newEd(t, 4)
	if !id.VerifyOwnBinding() {
		t.Fatal("identity does not satisfy its own CGA binding")
	}
	if !cga.Verify(id.Addr, id.Pub.Bytes(), id.Rn) {
		t.Fatal("cga.Verify disagrees")
	}
	if !id.Addr.IsSiteLocal() {
		t.Fatal("identity address not site-local")
	}
}

func TestRegenerateKeepsKeyChangesAddress(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	id, err := New(SuiteEd25519, rng, "")
	if err != nil {
		t.Fatal(err)
	}
	oldAddr, oldRn, oldPub := id.Addr, id.Rn, id.Pub.Bytes()
	id.Regenerate(rng)
	if id.Addr == oldAddr || id.Rn == oldRn {
		t.Fatal("Regenerate did not change address/modifier")
	}
	if string(id.Pub.Bytes()) != string(oldPub) {
		t.Fatal("Regenerate changed the key pair")
	}
	if !id.VerifyOwnBinding() {
		t.Fatal("regenerated identity breaks CGA binding")
	}
}

func TestEd25519Deterministic(t *testing.T) {
	a := newEd(t, 77)
	b := newEd(t, 77)
	if a.Addr != b.Addr || a.Rn != b.Rn {
		t.Fatal("same seed must yield identical identity")
	}
	c := newEd(t, 78)
	if a.Addr == c.Addr {
		t.Fatal("different seeds yielded same address")
	}
}

// TestSignIsDeterministic holds every suite to deterministic signing: one
// key signing one message twice yields equal bytes. The signing memo in
// internal/verifycache hands out a stored signature in place of a fresh
// one, which is sound only while this holds. Every suite belongs in the
// list: a randomized one, such as PSS or ECDSA, fails here and must not
// sign through the memo. RSA-2048 signs through the same code as RSA-1024.
func TestSignIsDeterministic(t *testing.T) {
	for _, suite := range []Suite{SuiteEd25519, SuiteRSA1024} {
		t.Run(suite.String(), func(t *testing.T) {
			id, err := New(suite, rand.New(rand.NewSource(3)), "")
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("hop attestation 7")
			first, second := id.Sign(msg), id.Sign(msg)
			if string(first) != string(second) {
				t.Fatalf("two signatures of one message differ:\n%x\n%x", first, second)
			}
		})
	}
}

func TestRSA2048RoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA-2048 keygen is slow")
	}
	rng := rand.New(rand.NewSource(2))
	id, err := New(SuiteRSA2048, rng, "big")
	if err != nil {
		t.Fatal(err)
	}
	if id.Pub.Suite() != SuiteRSA2048 {
		t.Fatalf("suite = %v", id.Pub.Suite())
	}
	msg := []byte("large-key check")
	if !id.Pub.Verify(msg, id.Sign(msg)) {
		t.Fatal("RSA-2048 signature does not verify")
	}
	parsed, err := ParsePublicKey(SuiteRSA2048, id.Pub.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Suite() != SuiteRSA2048 {
		t.Fatal("parsed suite wrong")
	}
	if !id.VerifyOwnBinding() {
		t.Fatal("CGA binding broken for RSA identity")
	}
}

func TestVerifyRejectsWrongLengths(t *testing.T) {
	id := newEd(t, 9)
	msg := []byte("m")
	sig := id.Sign(msg)
	if id.Pub.Verify(msg, sig[:10]) {
		t.Fatal("short signature accepted")
	}
	if id.Pub.Verify(msg, append(sig, 0)) {
		t.Fatal("long signature accepted")
	}
}

func TestSuiteString(t *testing.T) {
	if SuiteEd25519.String() != "ed25519" || SuiteRSA1024.String() != "rsa1024" || SuiteRSA2048.String() != "rsa2048" {
		t.Fatal("suite names wrong")
	}
	if Suite(9).String() != "suite(9)" {
		t.Fatal("unknown suite name wrong")
	}
}

func TestRandReaderFillsExactly(t *testing.T) {
	r := NewReader(rand.New(rand.NewSource(1)))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33} {
		buf := make([]byte, n)
		got, err := r.Read(buf)
		if err != nil || got != n {
			t.Fatalf("Read(%d) = %d, %v", n, got, err)
		}
	}
}

// Property: any message signs and verifies; any single-byte corruption of
// the message defeats verification.
func TestPropertySignatureSoundness(t *testing.T) {
	id := newEd(t, 6)
	prop := func(msg []byte, flip uint8) bool {
		sig := id.Sign(msg)
		if !id.Pub.Verify(msg, sig) {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		mutated := append([]byte(nil), msg...)
		mutated[int(flip)%len(mutated)] ^= 0x01
		if string(mutated) == string(msg) {
			return true
		}
		return !id.Pub.Verify(mutated, sig)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEd25519Sign(b *testing.B) {
	id := newEd(b, 1)
	msg := make([]byte, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id.Sign(msg)
	}
}

func BenchmarkEd25519Verify(b *testing.B) {
	id := newEd(b, 1)
	msg := make([]byte, 100)
	sig := id.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !id.Pub.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkRSA1024Verify(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	id, err := New(SuiteRSA1024, rng, "")
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 100)
	sig := id.Sign(msg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !id.Pub.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}

// One seeded reader state gives one RSA key, which crypto/rsa.GenerateKey
// cannot promise: it may read an extra byte from its reader.
func TestRSAKeygenDeterministic(t *testing.T) {
	gen := func() *Identity {
		id, err := New(SuiteRSA1024, rand.New(rand.NewSource(7)), "")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, b := gen(), gen()
	if !bytes.Equal(a.Pub.Bytes(), b.Pub.Bytes()) || a.Addr != b.Addr {
		t.Fatal("one seed gave two RSA keys")
	}
	if n := len(a.Pub.Bytes()); n != 140 {
		t.Fatalf("RSA-1024 public key encodes to %d bytes, want 140", n)
	}
	msg := []byte("attestation")
	if !b.Pub.Verify(msg, a.Sign(msg)) {
		t.Fatal("signature from one key fails under its twin")
	}
}
