package analyzers

import (
	"testing"

	"sbr6/internal/lint/analysistest"
)

// TestMapRange drives the maprange fixture: plain map ranges are
// flagged, the collect-then-sort idiom and reasoned //sbr6:commutative
// annotations are not, and a reason-less annotation suppresses nothing.
func TestMapRange(t *testing.T) {
	diags := analysistest.Run(t, MapRange, "maprange")
	if len(diags) == 0 {
		t.Fatal("maprange reported nothing on a fixture full of map ranges — the check is vacuous")
	}
}

// TestMapRangeProbesRegression proves non-vacuity against history: the
// fixture reconstructs the n.probes probe-ack map iteration that PR 2's
// differential suite caught dynamically as a real seed nondeterminism.
// maprange must catch that exact shape statically.
func TestMapRangeProbesRegression(t *testing.T) {
	diags := analysistest.Run(t, MapRange, "probesregression")
	if len(diags) != 1 {
		t.Fatalf("the historical n.probes bug shape must produce exactly one finding, got %d", len(diags))
	}
}

// TestWallTime drives the walltime fixture: clock reads and global
// math/rand draws are flagged, duration arithmetic and seeded stream
// methods are not.
func TestWallTime(t *testing.T) {
	diags := analysistest.Run(t, WallTime, "walltime")
	if len(diags) == 0 {
		t.Fatal("walltime reported nothing on a fixture full of clock reads — the check is vacuous")
	}
}

// TestSimRNG drives the simrng fixture: minting streams and importing
// crypto/rand are flagged, consuming a handed-down stream is not.
func TestSimRNG(t *testing.T) {
	diags := analysistest.Run(t, SimRNG, "simrng")
	if len(diags) == 0 {
		t.Fatal("simrng reported nothing on a fixture that mints streams — the check is vacuous")
	}
}

// TestGlobalState drives the globalstate fixture: package-level mutable
// vars are flagged, error sentinels and blank assertions are not.
func TestGlobalState(t *testing.T) {
	diags := analysistest.Run(t, GlobalState, "globalstate")
	if len(diags) == 0 {
		t.Fatal("globalstate reported nothing on a fixture full of package vars — the check is vacuous")
	}
}

// TestDirectVerify drives the directverify fixture (against the stub
// identity package): a bare PublicKey.Verify call is flagged, an
// annotated compute site and a VerifySig method on another type are not.
func TestDirectVerify(t *testing.T) {
	diags := analysistest.Run(t, DirectVerify, "directverify")
	if len(diags) != 1 {
		t.Fatalf("directverify must flag exactly the one bare primitive call, got %d", len(diags))
	}
}

// TestAllowEscapeHatch proves the //sbr6:allow contract on the walltime
// analyzer: a reasoned allow suppresses, a reason-less or wrong-analyzer
// allow does not.
func TestAllowEscapeHatch(t *testing.T) {
	diags := analysistest.Run(t, WallTime, "allow")
	if len(diags) != 2 {
		t.Fatalf("allow fixture must leave exactly the 2 non-suppressed findings, got %d", len(diags))
	}
}

// TestScoped pins the sim-path package set and the test-variant
// normalization the vet driver relies on.
func TestScoped(t *testing.T) {
	for _, tc := range []struct {
		path string
		want bool
	}{
		{"sbr6/internal/core", true},
		{"sbr6/internal/core [sbr6/internal/core.test]", true},
		{"sbr6/internal/core_test [sbr6/internal/core.test]", false},
		{"sbr6/internal/identity", false},
		{"sbr6/internal/verifycache", false},
		{"sbr6/internal/lint/analyzers", false},
		{"sbr6", false},
		{"sbr6/internal/wire", true},
		{"sbr6/internal/shard", true},
		{"sbr6/internal/mobility", true},
		{"sbr6/internal/dnssrv", true},
	} {
		if got := Scoped(tc.path); got != tc.want {
			t.Errorf("Scoped(%q) = %v, want %v", tc.path, got, tc.want)
		}
	}
}

// TestScopedDir pins the directory-based scope check -list-allows uses
// to keep the annotation inventory to annotations that have effect.
func TestScopedDir(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want bool
	}{
		{"internal/core", true},
		{"./internal/scenario", true},
		{"/root/repo/internal/wire", true},
		{"internal/shard", true},
		{"internal/mobility", true},
		{"internal/dnssrv", true},
		{"internal/identity", false},
		{"internal/lint/analyzers", false},
		{"internal/lint/analysis", false},
		{"cmd/sbr6lint", false},
		{".", false},
		{"core", false},
	} {
		if got := ScopedDir(tc.dir); got != tc.want {
			t.Errorf("ScopedDir(%q) = %v, want %v", tc.dir, got, tc.want)
		}
	}
}

// TestByName pins the registry the CLI resolves analyzers through.
func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of an unknown analyzer must return nil")
	}
}
