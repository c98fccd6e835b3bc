package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// PanicPolicy enforces the repo's panic discipline: library panics mark
// programming errors and must say which package detected them, so every
// panic argument must carry a "<pkg>: "-prefixed message (a string
// literal, a "<pkg>: "+... concatenation, or fmt.Sprintf/fmt.Errorf with
// a prefixed format). Binaries (cmd/) and runnable examples (examples/)
// must not panic at all — they report errors and exit. Tests may panic
// freely.
var PanicPolicy = &Analyzer{
	Name: "panicpolicy",
	Doc:  `require "<pkg>: "-prefixed panic messages; forbid panics in cmd/ and examples/`,
	Run:  runPanicPolicy,
}

func runPanicPolicy(p *Package) []Diagnostic {
	inBinary := p.InDir("cmd") || p.InDir("examples")
	prefix := p.Name + ": "
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fn.Name != "panic" || len(call.Args) != 1 {
				return true
			}
			switch {
			case inBinary:
				out = append(out, p.diag("panicpolicy", call.Pos(),
					"panic in %s: binaries report errors and exit non-zero instead of panicking", p.RelPath))
			case !prefixedMessage(call.Args[0], prefix):
				out = append(out, p.diag("panicpolicy", call.Pos(),
					"panic message must be a string starting with %q (literal, concatenation, or Sprintf)", prefix))
			}
			return true
		})
	})
	return out
}

// prefixedMessage reports whether the panic argument is recognizably a
// "<pkg>: "-prefixed message.
func prefixedMessage(arg ast.Expr, prefix string) bool {
	switch arg := ast.Unparen(arg).(type) {
	case *ast.BasicLit:
		if arg.Kind != token.STRING {
			return false
		}
		s, err := strconv.Unquote(arg.Value)
		return err == nil && strings.HasPrefix(s, prefix)
	case *ast.BinaryExpr:
		// "pkg: ...: " + err.Error() — the leftmost operand decides.
		return arg.Op == token.ADD && prefixedMessage(arg.X, prefix)
	case *ast.CallExpr:
		// fmt.Sprintf("pkg: ...", ...) / fmt.Errorf("pkg: ...", ...).
		sel, ok := ast.Unparen(arg.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != "fmt" || (sel.Sel.Name != "Sprintf" && sel.Sel.Name != "Errorf") {
			return false
		}
		return len(arg.Args) > 0 && prefixedMessage(arg.Args[0], prefix)
	}
	return false
}
