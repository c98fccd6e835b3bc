package analysis

import (
	"go/ast"
	"go/token"
)

// ErrDrop flags discarded error returns outside tests: a call used as a
// bare statement when its last result is an error, and assignments that
// blank the error position (`x, _ := f()`, `_ = f()`). Callees resolve
// exactly from signatures, and the policy covers repo-declared functions
// and methods only — standard-library drops (fmt.Println and friends) are
// out of scope by design. Deliberate discards take an
// //acqlint:ignore errdrop <reason> directive.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "forbid discarded error returns outside tests",
	Run:  runErrDrop,
}

func runErrDrop(p *Package) []Diagnostic {
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt, *ast.GoStmt:
				// A deferred/concurrent drop is a different policy call;
				// out of scope here.
				return false
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if name, ok := p.returnsError(call); ok {
						out = append(out, p.diag("errdrop", call.Pos(),
							"%s returns an error that is discarded; handle it or check it", name))
					}
				}
				return false
			case *ast.AssignStmt:
				out = append(out, p.blankedErrors(n)...)
				return true
			}
			return true
		})
	})
	return out
}

// blankedErrors reports error results assigned to _ .
func (p *Package) blankedErrors(as *ast.AssignStmt) []Diagnostic {
	if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
		return nil
	}
	// Multi-value form: x, _ := f() — the blank must sit in the error
	// (last) position.
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return nil
		}
		last, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
		if !ok || last.Name != "_" {
			return nil
		}
		if name, ok := p.returnsError(call); ok {
			return []Diagnostic{p.diag("errdrop", last.Pos(),
				"error result of %s assigned to _; handle it or check it", name)}
		}
		return nil
	}
	// Pairwise form: _ = f().
	var out []Diagnostic
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != "_" {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr)
			if !ok {
				continue
			}
			if name, ok := p.returnsError(call); ok {
				out = append(out, p.diag("errdrop", id.Pos(),
					"error result of %s assigned to _; handle it or check it", name))
			}
		}
	}
	return out
}

// returnsError resolves whether the called function's last result is an
// error, returning a printable name for diagnostics.
func (p *Package) returnsError(call *ast.CallExpr) (string, bool) {
	fn := p.calleeOf(call)
	// Dynamic calls and non-repo callees are out of scope; see the
	// analyzer doc.
	if fn == nil || !isRepoObject(fn) || !lastResultIsError(fn) {
		return "", false
	}
	name := fn.Name()
	switch callee := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		name = printableSelector(callee)
	case *ast.Ident:
		name = callee.Name
	}
	return name, true
}

func printableSelector(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
