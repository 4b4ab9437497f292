package cga

import (
	"testing"
	"testing/quick"

	"sbr6/internal/ipv6"
)

var pubA = []byte("public-key-of-host-A-0123456789")
var pubB = []byte("public-key-of-host-B-0123456789")

func TestAddressVerifies(t *testing.T) {
	addr := Address(pubA, 42)
	if !Verify(addr, pubA, 42) {
		t.Fatal("address does not verify against its own inputs")
	}
	if !addr.IsSiteLocal() {
		t.Fatal("address not site-local")
	}
	if addr.SubnetID() != 0 {
		t.Fatal("subnet ID must be zero in a MANET")
	}
}

func TestVerifyRejectsWrongInputs(t *testing.T) {
	addr := Address(pubA, 42)
	if Verify(addr, pubB, 42) {
		t.Fatal("verified under wrong public key")
	}
	if Verify(addr, pubA, 43) {
		t.Fatal("verified under wrong modifier")
	}
	// Not site-local: same IID under a non-fec0 prefix must fail.
	var fake ipv6.Addr
	fake = fake.WithInterfaceID(addr.InterfaceID())
	if Verify(fake, pubA, 42) {
		t.Fatal("verified a non-site-local address")
	}
	if Verify(Address(pubB, 42), pubA, 42) {
		t.Fatal("verified another host's address")
	}
	if Verify(ipv6.MustParse("2001:db8::1"), pubA, 42) {
		t.Fatal("verified a global address")
	}
}

func TestModifierChangesAddressKeepsKey(t *testing.T) {
	// Paper §3.1: rn lets a host derive a fresh IP while keeping PK.
	a1 := Address(pubA, 1)
	a2 := Address(pubA, 2)
	if a1 == a2 {
		t.Fatal("different modifiers should give different addresses")
	}
	if !Verify(a1, pubA, 1) || !Verify(a2, pubA, 2) {
		t.Fatal("both addresses must verify under the same key")
	}
}

func TestInterfaceIDMatchesAddress(t *testing.T) {
	iid := InterfaceID(pubA, 7)
	if Address(pubA, 7).InterfaceID() != iid {
		t.Fatal("address IID mismatch")
	}
}

func TestAddressInSubnet(t *testing.T) {
	a := AddressInSubnet(0x00ff, pubA, 7)
	if a.SubnetID() != 0x00ff {
		t.Fatalf("subnet = %#x", a.SubnetID())
	}
	if a.InterfaceID() != InterfaceID(pubA, 7) {
		t.Fatal("IID must not depend on subnet")
	}
	// Verify only checks the CGA part, so a subnetted address still verifies.
	if !Verify(a, pubA, 7) {
		t.Fatal("subnetted address should verify")
	}
}

func TestTruncatedIDWidths(t *testing.T) {
	full := TruncatedID(pubA, 9, 64)
	for _, bits := range []int{1, 8, 16, 24, 32, 48, 63} {
		got := TruncatedID(pubA, 9, bits)
		if got != full>>(64-uint(bits)) {
			t.Fatalf("TruncatedID(%d) = %#x, want prefix of %#x", bits, got, full)
		}
	}
}

func TestTruncatedIDPanicsOutOfRange(t *testing.T) {
	for _, bits := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TruncatedID(%d) did not panic", bits)
				}
			}()
			TruncatedID(pubA, 1, bits)
		}()
	}
}

// Property: Verify(Address(pub, rn), pub, rn) holds for arbitrary inputs.
func TestPropertyGenerateThenVerify(t *testing.T) {
	prop := func(pub []byte, rn uint64) bool {
		return Verify(Address(pub, rn), pub, rn)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct (pub, rn) pairs essentially never collide at 64 bits.
func TestPropertyNoAccidentalCollision(t *testing.T) {
	seen := make(map[uint64][]byte)
	prop := func(pub []byte, rn uint64) bool {
		id := InterfaceID(pub, rn)
		if _, dup := seen[id]; dup {
			return false // 2^-64 chance; a hit means the hash is broken
		}
		seen[id] = pub
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInterfaceID(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		InterfaceID(pubA, uint64(i))
	}
}
