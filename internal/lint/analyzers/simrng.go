package analyzers

import (
	"strconv"

	"sbr6/internal/lint/analysis"
)

// SimRNG enforces the repo's one randomness model on sim paths: every
// draw is a hash of (seed, stream, node, counter) from internal/draw, so
// no random-number package belongs in simulator code.
//
//   - crypto/rand is confined to internal/identity (key generation, the
//     one place real entropy belongs); a sim-path import of it is always
//     wrong — its output cannot be replayed from a seed.
//   - math/rand/v2's generators self-seed from process entropy.
//   - math/rand's sources are sequential streams whose draws depend on
//     how many came before, and each holds about 5 KiB of state.
var SimRNG = &analysis.Analyzer{
	Name: "simrng",
	Doc:  "ban crypto/rand, math/rand and math/rand/v2 on sim paths; every draw comes from internal/draw",
	Run:  runSimRNG,
}

func runSimRNG(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "crypto/rand":
				pass.Reportf(imp.Pos(), "crypto/rand on a sim path: real entropy cannot be replayed from a seed; it is confined to internal/identity key generation")
			case "math/rand", "math/rand/v2":
				pass.Reportf(imp.Pos(), "%s on a sim path: draw from the run's seeded streams (internal/draw) instead", path)
			}
		}
	}
	return nil
}
