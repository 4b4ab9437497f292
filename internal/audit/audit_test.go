package audit

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sbr6/internal/draw"
	"sbr6/internal/identity"
	"sbr6/internal/ndp"
)

func mustIdent(t *testing.T, seed int64) *identity.Identity {
	t.Helper()
	id, err := identity.New(identity.SuiteEd25519, draw.New(seed, draw.Key, 0), "")
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// Offsets are deterministic in (seed, id), land inside [0, period), and
// spread: a population's phases must not collapse onto a handful of values.
func TestOffsetProperties(t *testing.T) {
	period := 2 * time.Second
	prop := func(seed int64, id uint16) bool {
		off := Offset(seed, int(id), period)
		return off == Offset(seed, int(id), period) && off >= 0 && off < period
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	distinct := map[time.Duration]bool{}
	for id := 0; id < 256; id++ {
		distinct[Offset(7, id, period)] = true
	}
	if len(distinct) < 200 {
		t.Fatalf("256 nodes landed on only %d distinct phases — sweeps would synchronize", len(distinct))
	}

	if Offset(1, 3, 0) != 0 {
		t.Fatal("disabled period must yield a zero offset")
	}
}

// Resolve is complementary for distinct bindings (exactly one side rekeys,
// whichever order the roles are evaluated in) and symmetric-Rekey for
// bit-identical bindings (the clone case).
func TestResolveDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		aPK, bPK := make([]byte, 32), make([]byte, 32)
		r.Read(aPK)
		r.Read(bPK)
		aRn, bRn := r.Uint64(), r.Uint64()

		va := Resolve(aPK, aRn, bPK, bRn)
		vb := Resolve(bPK, bRn, aPK, aRn)
		if va == vb {
			t.Fatalf("iteration %d: both sides resolved %v — conflict would persist or both flap", i, va)
		}
	}
	// Clones: indistinguishable, so both sides must rekey.
	pk := make([]byte, 32)
	r.Read(pk)
	if Resolve(pk, 9, pk, 9) != Rekey {
		t.Fatal("bit-identical bindings must resolve to Rekey on both sides")
	}
	if !SameBinding(pk, 9, pk, 9) || SameBinding(pk, 9, pk, 10) {
		t.Fatal("SameBinding misclassifies")
	}
}

// A built advertisement and objection validate, and every tampering of the
// proof material is rejected with the matching sentinel error.
func TestBuildAndValidate(t *testing.T) {
	owner := mustIdent(t, 1)
	other := mustIdent(t, 2)

	adv := BuildAdv(owner, 3, 77)
	if err := ValidateAdv(nil, adv, identity.SuiteEd25519); err != nil {
		t.Fatalf("honest advertisement rejected: %v", err)
	}

	tampered := *adv
	tampered.Seq++ // signature covers the round counter
	if err := ValidateAdv(nil, &tampered, identity.SuiteEd25519); err != ndp.ErrBadSignature {
		t.Fatalf("inflated round accepted: %v", err)
	}
	tampered = *adv
	tampered.Rn++ // CGA binding breaks first
	if err := ValidateAdv(nil, &tampered, identity.SuiteEd25519); err != ndp.ErrCGABinding {
		t.Fatalf("wrong modifier: got %v", err)
	}
	tampered = *adv
	tampered.PK = []byte{1, 2, 3}
	if err := ValidateAdv(nil, &tampered, identity.SuiteEd25519); err == nil {
		t.Fatal("garbage key accepted")
	}

	obj := BuildObjection(other, other.Addr, adv.Ch, nil)
	if err := ValidateObj(nil, obj, identity.SuiteEd25519, adv.Ch); err != nil {
		t.Fatalf("honest objection rejected: %v", err)
	}
	if err := ValidateObj(nil, obj, identity.SuiteEd25519, adv.Ch+1); err != ndp.ErrWrongAddress {
		t.Fatalf("stale challenge accepted: %v", err)
	}
	forged := *obj
	forged.Sig = owner.Sign([]byte("not the challenge"))
	if err := ValidateObj(nil, &forged, identity.SuiteEd25519, adv.Ch); err != ndp.ErrBadSignature {
		t.Fatalf("forged objection: got %v", err)
	}
}
