package analysis

import (
	"go/ast"
)

// MapOrder flags `range` over a map whose body appends to a slice or
// writes output: Go randomizes map iteration order, so such loops produce
// nondeterministic plans and reports. Collect the keys, sort them, and
// iterate the sorted slice instead. Writes keyed back into a map (or
// other order-independent folds) are fine and not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid order-dependent bodies (append/output) under range-over-map outside tests",
	Run:  runMapOrder,
}

// outputCallNames are method/function names whose call in a range-over-map
// body emits output in iteration order.
var outputCallNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runMapOrder(p *Package) []Diagnostic {
	var out []Diagnostic
	p.walkNonTest(func(_ int, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			rg, ok := n.(*ast.RangeStmt)
			if !ok || !p.isMap(rg.X) {
				return true
			}
			if why := orderDependent(rg.Body); why != "" {
				out = append(out, p.diag("maporder", rg.For,
					"range over map with order-dependent body (%s); iterate sorted keys for deterministic output", why))
			}
			return true
		})
	})
	return out
}

// orderDependent reports what makes the loop body depend on iteration
// order ("" if nothing found): appending to a slice or emitting output.
func orderDependent(body *ast.BlockStmt) string {
	why := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fn := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if fn.Name == "append" {
					why = "append"
					return false
				}
			case *ast.SelectorExpr:
				if outputCallNames[fn.Sel.Name] {
					why = "output via " + fn.Sel.Name
					return false
				}
			}
		}
		return true
	})
	return why
}
