package analysis

import (
	"go/ast"
	"go/types"
)

// CtxBg forbids context.Background() and context.TODO() outside binaries
// (cmd/, examples/, any package main) and tests. A library that mints its
// own root context detaches the work from the caller's cancellation and
// deadline — PR 5 fixed four such planner-fallback sites by hand (serve
// degradation, the naive-cost baseline, the residual replanner, stream
// drift-replans); this enforces the rule permanently. Libraries thread a
// ctx parameter or a configured base context instead; the rare justified
// root (a server's own lifecycle context, an explicit documented default)
// takes an //acqlint:ignore ctxbg <reason> directive.
var CtxBg = &Analyzer{
	Name: "ctxbg",
	Doc:  "forbid context.Background/TODO outside cmd/, examples/, package main, and tests; thread the caller's context",
	Run:  runCtxBg,
}

func runCtxBg(p *Package) []Diagnostic {
	if p.InDir("cmd") || p.InDir("examples") || p.Name == "main" {
		return nil
	}
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		// Resolve uses of the two constructors, alias- and dot-import-proof.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := p.TypesInfo.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			if fn.Name() == "Background" || fn.Name() == "TODO" {
				out = append(out, p.diag("ctxbg", id.Pos(),
					"context.%s outside cmd/ and package main; thread the caller's context (ctx parameter or configured base context) instead", fn.Name()))
			}
			return true
		})
	})
	return out
}
