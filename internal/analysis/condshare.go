package analysis

import (
	"go/ast"
	"strings"
)

// condShareAllowed lists the internal/opt functions permitted to derive
// a child conditioning context, in the order diagnostics cite them.
// Everything else must go through them, so the sharing discipline of the
// parallel search — parent Conds are read concurrently and never
// restricted in place by candidate evaluators — is auditable in one
// screenful of code.
var condShareAllowed = []string{"childCond", "restrictLazy"}

func condShareAllows(name string) bool {
	for _, a := range condShareAllowed {
		if a == name {
			return true
		}
	}
	return false
}

// CondShare confines Cond.RestrictRange/RestrictPred calls in
// internal/opt to the blessed derivation helpers. The parallel planners
// hand one Cond to many goroutines; a stray Restrict* call in search
// code either re-derives a context the memo should have shared (a
// silent O(rows) cost) or, worse, races with siblings reading the
// parent. Route new derivations through childCond or restrictLazy
// instead; conditioning on a predicate holding goes through
// stats.CondChain, which owns that chain for every planner.
var CondShare = &Analyzer{
	Name: "condshare",
	Doc:  "confine Cond.Restrict* in internal/opt to the derivation helpers (childCond, restrictLazy)",
	Run:  runCondShare,
}

func runCondShare(p *Package) []Diagnostic {
	if !p.InDir("internal/opt") {
		return nil
	}
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Methods never qualify: the allowlist is plain functions, so a
			// receiver disqualifies even a name collision.
			if fd.Recv == nil && condShareAllows(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "RestrictRange" && sel.Sel.Name != "RestrictPred") {
					return true
				}
				out = append(out, p.diag("condshare", sel.Sel.Pos(),
					"Cond.%s outside the derivation helpers (%s); search code must share parent contexts and derive children through them",
					sel.Sel.Name, strings.Join(condShareAllowed, ", ")))
				return true
			})
		}
	})
	return out
}
