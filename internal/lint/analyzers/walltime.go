package analyzers

import (
	"go/ast"
	"go/types"

	"sbr6/internal/lint/analysis"
)

// WallTime forbids reading the host clock and drawing from the
// process-global math/rand stream on sim paths. Simulation time is
// virtual (sim.Time advances only through the event queue) and every
// draw is a hash of the run seed (internal/draw), so both of these make a run a
// function of the machine it ran on rather than of its configuration.
var WallTime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock time and the global math/rand stream on sim paths",
	Run:  runWallTime,
}

// wallClockFuncs are the package time functions that read or arm the
// host clock. Constructing and arithmetic on time.Duration stays legal —
// the sim measures virtual durations constantly.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// globalRandConstructors are the math/rand and math/rand/v2 package
// functions that do NOT consume the global stream: they build explicit
// sources/generators, whose discipline the simrng analyzer governs.
var globalRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runWallTime(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions: methods like (*rand.Rand).Intn
			// or (time.Time).Sub are fine.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(id.Pos(), "time.%s reads the wall clock on a sim path; use the virtual clock (sim.Time via the simulator) instead", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !globalRandConstructors[fn.Name()] {
					pass.Reportf(id.Pos(), "%s.%s draws from the process-global RNG on a sim path; draw from the run's seeded streams (internal/draw) instead", fn.Pkg().Path(), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}
