package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"sbr6/internal/lint/analysis"
)

// SimRNG enforces the repo's RNG ownership discipline on sim paths:
//
//   - crypto/rand is confined to internal/identity (key generation, the
//     one place real entropy belongs); a sim-path import of it is always
//     wrong — its output cannot be replayed from a seed.
//   - math/rand/v2 is banned outright: its generators self-seed from
//     process entropy and the repo standardizes on the seeded math/rand
//     streams the scenario mints.
//   - rand.New / rand.NewSource are flagged everywhere on sim paths, so
//     each place a stream is minted from the seed (the scenario's
//     placement/identity/per-node/track streams) carries a visible
//     //sbr6:allow — new mints must justify themselves in review.
//     Everything else consumes a *rand.Rand handed down from those
//     owners, or uses boot.Mix-style splitmix hashing, which draws
//     nothing.
var SimRNG = &analysis.Analyzer{
	Name: "simrng",
	Doc:  "confine RNG minting to the annotated scenario owners; ban crypto/rand and math/rand/v2 on sim paths",
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
			case "math/rand/v2":
				pass.Reportf(imp.Pos(), "math/rand/v2 on a sim path: its generators self-seed from process entropy; use the scenario-owned seeded math/rand streams")
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/rand" {
				return true
			}
			if fn.Name() == "New" || fn.Name() == "NewSource" {
				pass.Reportf(id.Pos(), "rand.%s mints an RNG stream on a sim path; consume a scenario-owned stream, or annotate //sbr6:allow simrng <reason> if this is a seed-derived owner", fn.Name())
			}
			return true
		})
	}
	return nil
}
