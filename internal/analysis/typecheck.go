package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"sync"
)

// The typed layer. Load type-checks every package it names with stdlib
// go/types. A repo import resolves to a sibling package of the load or,
// when the patterns left it out, to the directory it names under the same
// module root, parsed and type-checked on demand as a dependency: its
// functions join the call graph, but analyzers report only on the named
// packages. Standard-library imports are type-checked from GOROOT source
// by a shared go/importer "source"-mode importer (no compiled export data,
// no external tooling, works offline on any box with a Go toolchain). A
// parse or type error in a named package or a repo dependency is a load
// error, so every analyzed package carries full type information.

// stdImporterState is the process-wide source importer for standard
// library packages. It is shared across Load calls so the (substantial,
// one-time) cost of type-checking fmt/net/http/... from source is paid
// once per process; srcimporter instances are not documented
// concurrency-safe, so every use holds the mutex. It owns a private
// FileSet — stdlib positions never surface in diagnostics, so they need
// not be comparable with package positions.
var stdImporterState struct {
	once sync.Once
	mu   sync.Mutex
	imp  types.Importer
}

func stdlibImport(path string) (*types.Package, error) {
	stdImporterState.once.Do(func() {
		stdImporterState.imp = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	stdImporterState.mu.Lock()
	defer stdImporterState.mu.Unlock()
	return stdImporterState.imp.Import(path)
}

// typeChecker type-checks one load's packages in dependency order. It is
// the types.Importer handed to go/types: repo import paths resolve to
// packages of the load, parsing and checking dependencies on demand;
// everything else goes to the shared stdlib importer.
type typeChecker struct {
	fset   *token.FileSet
	root   string
	byPath map[string]*Package
	// deps are the repo packages loaded on demand, in load order.
	deps []*Package
	// checking marks packages whose check is in progress, to report
	// import cycles.
	checking map[string]bool
}

func (tc *typeChecker) Import(path string) (*types.Package, error) {
	if !isRepoImport(path) {
		return stdlibImport(path)
	}
	p, ok := tc.byPath[path]
	if !ok {
		dir := filepath.Join(tc.root, filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
		var err error
		if p, err = parseDir(tc.fset, tc.root, dir); err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files in %s", dir)
		}
		tc.byPath[path] = p
		tc.deps = append(tc.deps, p)
	}
	if err := tc.check(p); err != nil {
		return nil, err
	}
	return p.TypesPkg, nil
}

// check type-checks p's non-test files once. A failure aborts the whole
// load, so a package whose check failed is never asked for again.
func (tc *typeChecker) check(p *Package) error {
	if p.TypesPkg != nil {
		return nil
	}
	if tc.checking[p.ImportPath] {
		return fmt.Errorf("import cycle through %s", p.ImportPath)
	}
	tc.checking[p.ImportPath] = true
	defer delete(tc.checking, p.ImportPath)

	// Honor build constraints for the type-check file set: the parser keeps
	// every file (so syntactic analyzers still see both halves of a
	// //go:build pair), but type-checking both race_on.go and race_off.go
	// would redeclare their shared names. Files the default build context
	// excludes simply carry no type information. A directory holding only
	// test files checks as an empty package.
	var files []*ast.File
	p.walkNonTest(func(_ int, f *ast.File) {
		name := tc.fset.Position(f.Package).Filename
		if match, err := build.Default.MatchFile(filepath.Dir(name), filepath.Base(name)); err == nil && !match {
			return
		}
		files = append(files, f)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: tc}
	tpkg, err := conf.Check(p.ImportPath, tc.fset, files, info)
	if err != nil {
		return err
	}
	p.TypesPkg, p.TypesInfo = tpkg, info
	return nil
}

// calleeOf resolves the statically-called function or method of a call
// expression, nil when the call is dynamic (a func-typed variable, field,
// or parameter — exactly the injected escape hatches detflow treats as
// sanitized). Generic instantiations resolve to their origin.
func (p *Package) calleeOf(call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	// Unwrap explicit instantiations: f[int](x).
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fn := fun.(type) {
	case *ast.Ident:
		obj = p.TypesInfo.Uses[fn]
	case *ast.SelectorExpr:
		obj = p.TypesInfo.Uses[fn.Sel]
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

// isRepoObject reports whether the object was declared in a package of
// this module (as opposed to the standard library).
func isRepoObject(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && isRepoImport(obj.Pkg().Path())
}

// isFloat reports whether an expression is float-kinded.
func (p *Package) isFloat(e ast.Expr) bool {
	tv, found := p.TypesInfo.Types[e]
	if !found || tv.Type == nil {
		return false
	}
	b, isBasic := tv.Type.Underlying().(*types.Basic)
	return isBasic && b.Info()&types.IsFloat != 0
}

// isMap reports whether an expression is map-typed.
func (p *Package) isMap(e ast.Expr) bool {
	tv, found := p.TypesInfo.Types[e]
	if !found || tv.Type == nil {
		return false
	}
	_, isM := tv.Type.Underlying().(*types.Map)
	return isM
}

// errorType is the universe error interface, for signature checks.
var errorType = types.Universe.Lookup("error").Type()

// lastResultIsError reports whether the function's final result is the
// error type.
func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Identical(res.At(res.Len()-1).Type(), errorType)
}

// modulePath is the import-path prefix identifying this repo's packages.
const modulePath = "acqp"

func isRepoImport(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}
