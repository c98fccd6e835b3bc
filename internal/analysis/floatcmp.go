package analysis

import (
	"go/ast"
	"go/token"
)

// floatCmpScope names the numeric packages where exact float equality is
// forbidden: the Eq. (1)-(3) implementations whose probabilities and
// costs accumulate rounding error.
var floatCmpScope = []string{
	"internal/plan",
	"internal/stats",
	"internal/opt",
	"internal/model",
}

// FloatCmp flags == and != between float64 expressions in the numeric
// packages. Probabilities are products and prefix-sum differences and
// costs are branch-weighted sums, so two mathematically equal values
// rarely compare equal; use the helpers in internal/floats (floats.Eq,
// floats.Zero, floats.One) or an explicit <=/>= against a bound instead.
// Operands resolve exactly from their types (named float types, inferred
// locals).
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "forbid ==/!= between float64 expressions in the numeric packages",
	Run:  runFloatCmp,
}

func runFloatCmp(p *Package) []Diagnostic {
	inScope := false
	for _, dir := range floatCmpScope {
		if p.InDir(dir) {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if p.isFloat(be.X) || p.isFloat(be.Y) {
				out = append(out, p.diag("floatcmp", be.OpPos,
					"exact float64 %s comparison; use floats.Eq/Zero/One (internal/floats) or an inequality with tolerance", be.Op))
			}
			return true
		})
	})
	return out
}
