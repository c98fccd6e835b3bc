package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// The cross-package determinism taint analysis backing detflow.
//
// Every headline invariant of this reproduction — plan byte-identity
// across worker counts, p=0 fault-path identity, trace non-interference,
// cache-key soundness — reduces to the planner core being a pure function
// of (statistics, query, options). The taint pass makes that property
// checkable: it builds a static call graph over every package of the
// load, its repo dependencies included, marks nondeterminism *sources*
// (wall-clock reads, global math/rand draws, environment/file/network
// I/O, map iteration feeding ordered output, goroutine spawns whose
// completion order is scheduler-dependent), and reports any call path
// from an exported function of the declared-pure packages to a source.
//
// Sanitizers — the audited ways nondeterminism is injected rather than
// read — fall out of the model or are asserted explicitly:
//
//   - dynamic calls (func-typed fields, parameters, closures handed in by
//     the caller, e.g. a `now func() time.Time` clock) are not call-graph
//     edges, so an injected clock never taints;
//   - methods on a *rand.Rand value are allowed — only the package-level
//     convenience functions draw from process-global state;
//   - a function whose doc comment carries `//acqlint:pure <reason>` is
//     an audited assertion: its body is excluded from the graph (both its
//     facts and its outgoing calls), putting deliberate, tested
//     constructions like the parallel search's deterministic reduction
//     on the record.
//
// The pass is sound only up to static resolution: interface method calls
// that cannot be devirtualized are not edges.

// purePackages are the packages declared pure: their exported API must be
// a deterministic function of its inputs.
var purePackages = []string{
	"internal/plan",
	"internal/opt",
	"internal/stats",
	"internal/model",
	"internal/query",
	"internal/boolq",
	"internal/floats",
	"internal/exec",
}

// pureDirective asserts a function deterministic despite containing a
// source pattern; the reason is mandatory.
const pureDirective = "//acqlint:pure"

// sourceFact is one direct nondeterminism source inside a function body.
type sourceFact struct {
	pos  token.Pos
	desc string
}

// calleeEdge is one statically-resolved call into a repo function.
type calleeEdge struct {
	pos token.Pos
	fn  *types.Func
}

// funcNode is one function in the determinism call graph.
type funcNode struct {
	fn      *types.Func
	pkg     *Package
	decl    *ast.FuncDecl
	pure    bool
	callees []calleeEdge
	facts   []sourceFact
}

// program is the whole-load view shared by every package of a Load: the
// parallel driver runs analyzers per package, so cross-package passes
// compute once here, guarded by a sync.Once, and hand each package its
// slice of the result.
type program struct {
	fset *token.FileSet
	pkgs []*Package

	once    sync.Once
	nodes   map[*types.Func]*funcNode
	detflow map[*Package][]Diagnostic
}

// wallClockFuncs are the "time" package functions that read or schedule
// against the wall clock. Methods on time.Time/time.Duration values are
// pure arithmetic on injected data and are not listed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// randConstructors are the math/rand (v1 and v2) package-level names that
// construct an explicit generator instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// ioSourcePkgs are packages whose calls mean the function talks to the
// process environment, filesystem, or network.
var ioSourcePkgs = map[string]bool{
	"os": true, "os/exec": true, "os/signal": true, "os/user": true,
	"net": true, "net/http": true, "syscall": true, "io/ioutil": true,
	"crypto/rand": true,
}

// classifySource reports why calling fn is a nondeterminism source, or ""
// when it is not.
func classifySource(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return "" // builtins, error.Error
	}
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	switch path := pkg.Path(); path {
	case "time":
		if !hasRecv && wallClockFuncs[fn.Name()] {
			return "time." + fn.Name() + " (wall-clock read)"
		}
	case "math/rand", "math/rand/v2":
		// Package-level draws use the shared global source; methods on an
		// explicitly-constructed (injected, seeded) generator are the
		// sanctioned pattern and are not sources.
		if !hasRecv && !randConstructors[fn.Name()] {
			return path + "." + fn.Name() + " (process-global randomness)"
		}
	default:
		if ioSourcePkgs[path] {
			return path + "." + fn.Name() + " (environment/file/network I/O)"
		}
	}
	return ""
}

// pureReason extracts the //acqlint:pure reason from a function's doc
// comment ("" when absent). Reasonless directives are reported by
// buildIgnores, not here.
func pureReason(fd *ast.FuncDecl) string {
	if fd.Doc == nil {
		return ""
	}
	for _, c := range fd.Doc.List {
		if rest, ok := strings.CutPrefix(c.Text, pureDirective); ok {
			if reason := strings.TrimSpace(rest); reason != "" {
				return reason
			}
		}
	}
	return ""
}

// build constructs the call graph over every package of the load.
func (prog *program) build() {
	prog.nodes = make(map[*types.Func]*funcNode)
	for _, p := range prog.pkgs {
		p.walkNonTest(func(_ int, f *ast.File) {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &funcNode{fn: obj, pkg: p, decl: fd, pure: pureReason(fd) != ""}
				prog.nodes[obj] = node
				if node.pure {
					continue // asserted deterministic: body excluded
				}
				// calleePos marks selector nodes already consumed as the
				// callee of an enclosing call (Inspect is pre-order, so
				// the CallExpr marks its Fun before the child is visited);
				// any other reference to a source function is the function
				// escaping as a value, which taints just the same.
				calleePos := make(map[ast.Expr]bool)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					prog.scanNode(p, node, n, calleePos)
					return true
				})
			}
		})
	}
}

// scanNode records the call edges and source facts of one AST node.
func (prog *program) scanNode(p *Package, node *funcNode, n ast.Node, calleePos map[ast.Expr]bool) {
	switch n := n.(type) {
	case *ast.CallExpr:
		calleePos[ast.Unparen(n.Fun)] = true
		fn := p.calleeOf(n)
		if fn == nil {
			return // dynamic call: injected dependency, sanitized by construction
		}
		if desc := classifySource(fn); desc != "" {
			node.facts = append(node.facts, sourceFact{n.Pos(), desc})
		} else if isRepoObject(fn) {
			node.callees = append(node.callees, calleeEdge{n.Pos(), fn})
		}
	case *ast.GoStmt:
		node.facts = append(node.facts, sourceFact{n.Pos(),
			"goroutine spawn (completion order is scheduler-dependent)"})
	case *ast.RangeStmt:
		if p.isMap(n.X) {
			if why := orderDependent(n.Body); why != "" {
				node.facts = append(node.facts, sourceFact{n.For,
					"map iteration order feeding ordered output (" + why + ")"})
			}
		}
	case *ast.SelectorExpr:
		switch obj := p.TypesInfo.Uses[n.Sel].(type) {
		case *types.Var:
			// Reads of mutable process state exposed as package variables
			// (os.Args, os.Stdin, ...).
			if !obj.IsField() && obj.Pkg() != nil && ioSourcePkgs[obj.Pkg().Path()] {
				node.facts = append(node.facts, sourceFact{n.Pos(),
					obj.Pkg().Path() + "." + obj.Name() + " (process state)"})
			}
		case *types.Func:
			// A source function escaping as a value (time.Now handed to a
			// clock field defeats the injection discipline).
			if !calleePos[n] {
				if desc := classifySource(obj.Origin()); desc != "" {
					node.facts = append(node.facts, sourceFact{n.Pos(), desc + ", referenced as a value"})
				}
			}
		}
	}
}

// inPureScope reports whether the package is one of the declared-pure
// packages (containment matching, so golden fixtures under
// testdata/src/internal/plan/... are in scope).
func inPureScope(p *Package) bool {
	for _, dir := range purePackages {
		if p.InDir(dir) {
			return true
		}
	}
	return false
}

// funcLabel renders a function for call-path diagnostics: pkg.Func or
// pkg.Type.Method.
func funcLabel(fn *types.Func) string {
	label := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			label = named.Obj().Name() + "." + label
		}
	}
	if fn.Pkg() != nil {
		label = fn.Pkg().Name() + "." + label
	}
	return label
}

// detflowAll runs the taint pass once and buckets diagnostics by the
// package declaring each tainted entry point. Safe for concurrent use.
func (prog *program) detflowAll() map[*Package][]Diagnostic {
	prog.once.Do(func() {
		prog.build()
		prog.detflow = make(map[*Package][]Diagnostic)

		// Entry points: exported functions (and methods) of the
		// declared-pure packages, in deterministic position order.
		var entries []*funcNode
		//acqlint:ignore maporder collection order is erased by the total (filename, offset) sort below
		for _, node := range prog.nodes {
			if node.decl.Name.IsExported() && inPureScope(node.pkg) && !node.pure {
				entries = append(entries, node)
			}
		}
		sort.Slice(entries, func(i, j int) bool {
			a := prog.fset.Position(entries[i].decl.Name.Pos())
			b := prog.fset.Position(entries[j].decl.Name.Pos())
			if a.Filename != b.Filename {
				return a.Filename < b.Filename
			}
			return a.Offset < b.Offset
		})

		// Each source fact is reported once per package, from the first
		// of its entries (in the order above) that reaches it, with the
		// shortest call path — BFS over callees in source order makes the
		// choice deterministic. Deduplicating per package rather than per
		// load keeps a package's findings independent of which other
		// pure packages were named.
		reported := make(map[*Package]map[token.Pos]bool)
		for _, entry := range entries {
			if reported[entry.pkg] == nil {
				reported[entry.pkg] = make(map[token.Pos]bool)
			}
			prog.taintFrom(entry, reported[entry.pkg])
		}
	})
	return prog.detflow
}

// taintFrom breadth-first-searches the call graph from one entry point
// and emits a diagnostic for every not-yet-reported source fact reached.
func (prog *program) taintFrom(entry *funcNode, reported map[token.Pos]bool) {
	type item struct {
		node *funcNode
		path []*funcNode
	}
	visited := map[*types.Func]bool{entry.fn: true}
	queue := []item{{entry, []*funcNode{entry}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		for _, fact := range it.node.facts {
			if reported[fact.pos] {
				continue
			}
			reported[fact.pos] = true
			steps := make([]string, len(it.path))
			for i, n := range it.path {
				steps[i] = funcLabel(n.fn)
			}
			srcPos := prog.fset.Position(fact.pos)
			d := entry.pkg.diag("detflow", entry.decl.Name.Pos(),
				"nondeterminism reachable from exported %s: %s -> %s at %s:%d; inject the dependency (now func, *rand.Rand, ctx) or assert //acqlint:pure <reason> on the audited function",
				funcLabel(entry.fn), strings.Join(steps, " -> "), fact.desc,
				filepath.Base(srcPos.Filename), srcPos.Line)
			prog.detflow[entry.pkg] = append(prog.detflow[entry.pkg], d)
		}
		for _, edge := range it.node.callees {
			callee := prog.nodes[edge.fn]
			if callee == nil || callee.pure || visited[edge.fn] {
				continue
			}
			visited[edge.fn] = true
			path := make([]*funcNode, len(it.path)+1)
			copy(path, it.path)
			path[len(it.path)] = callee
			queue = append(queue, item{callee, path})
		}
	}
}

// DetFlow is the cross-package determinism taint analysis.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc: fmt.Sprintf("report call paths from exported functions of the declared-pure packages (%s) to nondeterminism sources",
		strings.Join(purePackages, ", ")),
	Run: func(p *Package) []Diagnostic {
		return p.prog.detflowAll()[p]
	},
}
