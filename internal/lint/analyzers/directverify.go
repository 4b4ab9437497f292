package analyzers

import (
	"go/ast"
	"go/types"

	"sbr6/internal/lint/analysis"
)

// DirectVerify forbids calling the signature primitive
// identity.PublicKey.Verify directly on sim paths. Every signature check
// must flow through the node's memoized verification path — core's
// Node.verify on top of internal/verifycache — or through an
// ndp.Verifier hook a node can plug that path into. A direct call
// recomputes work the memo already paid for, and worse, its cost is
// invisible: the Stats the benchmarks and the differential suite reason
// about no longer cover every primitive. The sanctioned compute sites —
// ndp.DirectVerifier's documented fallback and the dnssrv client-side
// validators nodes never call — carry //sbr6:allow annotations. CGA
// binding checks (cga.Verify) are one digest and a compare, cheaper than
// a memo lookup, so they are called directly and not policed.
var DirectVerify = &analysis.Analyzer{
	Name: "directverify",
	Doc:  "forbid direct identity.PublicKey.Verify calls that bypass the signature memo on sim paths",
	Run:  runDirectVerify,
}

func runDirectVerify(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if ok && isPublicKeyVerify(fn) {
				pass.Reportf(id.Pos(), "identity.PublicKey.Verify bypasses the signature memo on a sim path; route the check through the node's verifier (core's Node.verify, or an ndp.Verifier hook)")
			}
			return true
		})
	}
	return nil
}

// isPublicKeyVerify reports whether fn is the Verify method of the
// identity.PublicKey interface.
func isPublicKeyVerify(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if fn.Name() != "Verify" || recv == nil {
		return false
	}
	named, ok := recv.Type().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sbr6/internal/identity" && obj.Name() == "PublicKey"
}
