// Package analyzers holds the four sbr6lint determinism checks and the
// list of simulator-path packages they are scoped to. The invariant they
// enforce collectively: a simulation run is a pure function of its
// configuration and seed — byte-identical Results on every machine, with
// every shard count, forever. Each analyzer guards one way that property
// has been (or could be) lost:
//
//   - maprange: map iteration order leaking into simulation state (the
//     exact shape of the historical n.probes probe-ack bug PR 2 caught
//     dynamically with the cross-medium differential suite).
//   - walltime: wall-clock time or the process-global math/rand stream
//     entering a sim path (virtual time and the seeded scenario RNG only).
//   - simrng: RNG discipline — streams are minted only by the scenario
//     owners from the seed; crypto/rand stays confined to identity keygen.
//   - globalstate: package-level mutable state, the direct blocker to the
//     region-sharded simulation core on the roadmap (region-local state
//     must be the only state).
//   - directverify: direct identity.PublicKey.Verify calls that bypass
//     the memoized signature check (verifycache), making their cost
//     invisible to the Stats the benchmarks and differential suites
//     account against.
package analyzers

import (
	"path/filepath"
	"strings"

	"sbr6/internal/lint/analysis"
)

// All is the sbr6lint analyzer suite, in reporting order.
var All = []*analysis.Analyzer{MapRange, WallTime, SimRNG, GlobalState, DirectVerify}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// scopedPackages are the sim-path packages whose code must uphold the
// determinism invariants. Deliberately absent: internal/identity (the
// one legitimate crypto/rand consumer — key generation, and the home of
// the node-local CGA self-check), internal/trace and
// internal/verifycache (value containers whose iteration never reaches
// simulation state), the harness packages (experiments, scalebench,
// lint) and the facade/CLIs (which run scenarios but hold no per-event
// state).
var scopedPackages = map[string]bool{
	"sbr6/internal/sim":      true,
	"sbr6/internal/core":     true,
	"sbr6/internal/ndp":      true,
	"sbr6/internal/radio":    true,
	"sbr6/internal/scenario": true,
	"sbr6/internal/audit":    true,
	"sbr6/internal/boot":     true,
	"sbr6/internal/dsr":      true,
	"sbr6/internal/geom":     true,
	"sbr6/internal/wire":     true,
	"sbr6/internal/mobility": true,
	"sbr6/internal/attack":   true,
	"sbr6/internal/pool":     true,
	"sbr6/internal/shard":    true,
	"sbr6/internal/dnssrv":   true,
}

// Scoped reports whether the package with the given import path is on
// the simulator path and subject to the suite. Test-variant paths like
// "sbr6/internal/core [sbr6/internal/core.test]" resolve to their base
// package.
func Scoped(importPath string) bool {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	return scopedPackages[importPath]
}

// ScopedDir reports whether a filesystem directory holds one of the
// scoped packages, by matching its trailing "internal/<name>" segments.
// It lets tooling that walks the tree (sbr6lint -list-allows) decide
// scope without resolving import paths.
func ScopedDir(dir string) bool {
	parts := strings.Split(filepath.ToSlash(filepath.Clean(dir)), "/")
	if len(parts) < 2 || parts[len(parts)-2] != "internal" {
		return false
	}
	return scopedPackages["sbr6/internal/"+parts[len(parts)-1]]
}
