package analysis

import (
	"go/ast"
	"go/types"
)

// GlobalRand forbids the top-level math/rand convenience functions
// (rand.Float64, rand.Intn, rand.Seed, ...) outside tests: they draw from
// a process-global source, so experiment and example output is not
// reproducible run to run. Construct a seeded generator instead:
// rng := rand.New(rand.NewSource(seed)).
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid global math/rand functions outside tests; inject a seeded *rand.Rand",
	Run:  runGlobalRand,
}

func runGlobalRand(p *Package) []Diagnostic {
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		// Resolve every use of a math/rand package-level function — alias-
		// and dot-import-proof. Constructors and methods on an explicit
		// *rand.Rand are the sanctioned pattern.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			if randConstructors[fn.Name()] {
				return true
			}
			out = append(out, p.diag("globalrand", id.Pos(),
				"global math/rand.%s is shared, unseeded state; inject a seeded *rand.Rand (rand.New(rand.NewSource(seed)))", fn.Name()))
			return true
		})
	})
	return out
}
