// Package analysis is acqlint's engine: a stdlib-only static-analysis
// driver enforcing repo-specific invariants the Go compiler cannot see —
// epsilon-safe float comparisons, deterministic iteration and randomness,
// package-prefixed panics, handled errors, threaded contexts, and the
// cross-package determinism of the planner core.
//
// Each invariant is a named Analyzer over a type-checked Package. Load
// type-checks every named package with go/types, loading the repo
// packages they import as dependencies under the same module root and
// standard-library imports from GOROOT source (go/importer "source" mode
// — still zero external dependencies). Analyzers report on the named
// packages only, and a package's diagnostics do not depend on which other
// packages were named. A parse or type error is a load error: acqlint
// exits 2 on it, as go vet does.
//
// The driver analyzes packages in parallel; diagnostics are ordered
// deterministically regardless of scheduling, so two runs over the same
// tree emit byte-identical output.
//
// A finding on a given line is suppressed by a directive comment on that
// line or the line above:
//
//	//acqlint:ignore <analyzer> <reason>
//
// A function that deliberately contains a nondeterminism-source pattern
// but is audited deterministic (e.g. a goroutine fan-out with an
// order-independent reduction) asserts so in its doc comment:
//
//	//acqlint:pure <reason>
//
// The reason is mandatory in both; a malformed directive is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding: an invariant violation at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named, individually-toggleable invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -disable flags, and
	// ignore directives.
	Name string
	// Doc is a one-line description of the invariant guarded.
	Doc string
	// Run reports every violation in the package. Suppression directives
	// are applied by the driver, not by Run.
	Run func(p *Package) []Diagnostic
}

// Analyzers returns the full suite in reporting order. FaultDet,
// TraceDet, ClusterDet, and ChaosDet are detscope instances (see
// detscope.go) — the first two kept under their original names; CtxBg
// and DetFlow are the typed-era additions.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatCmp,
		GlobalRand,
		MapOrder,
		PanicPolicy,
		ErrDrop,
		CondShare,
		FaultDet,
		TraceDet,
		ClusterDet,
		ChaosDet,
		CtxBg,
		DetFlow,
	}
}

// Package is one parsed, type-checked package directory.
type Package struct {
	// Fset positions every file in the package.
	Fset *token.FileSet
	// RelPath is the directory path relative to the module root, using
	// forward slashes ("" for the root package).
	RelPath string
	// Name is the package name from the package clause (of the first
	// non-test file, falling back to the first file).
	Name string
	// Files holds every parsed .go file, test files included; FileNames
	// is parallel to it.
	Files     []*ast.File
	FileNames []string

	// ImportPath is the package's module import path (modulePath for the
	// root package), the key under which siblings import it.
	ImportPath string
	// TypesPkg and TypesInfo carry full go/types information for the
	// non-test files.
	TypesPkg  *types.Package
	TypesInfo *types.Info

	// prog is the whole-load view shared by every package, for
	// cross-package passes like detflow.
	prog *program

	// ignores maps file index -> line -> analyzer names suppressed there.
	ignores map[int]map[int][]string
	// badDirectives are malformed ignore/pure comments, reported by RunAll.
	badDirectives []Diagnostic
}

// IsTestFile reports whether file i of the package is a _test.go file.
func (p *Package) IsTestFile(i int) bool {
	return strings.HasSuffix(p.FileNames[i], "_test.go")
}

// InDir reports whether the package lives under (or inside a path
// containing) the given slash-separated directory, e.g. "internal/plan"
// or "cmd". Matching by containment lets golden fixtures under
// testdata/src/internal/plan/... exercise scoped analyzers.
func (p *Package) InDir(dir string) bool {
	rel := p.RelPath + "/"
	return strings.HasPrefix(rel, dir+"/") || strings.Contains(rel, "/"+dir+"/")
}

// diag builds a Diagnostic at pos.
func (p *Package) diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Fset.Position(pos), Analyzer: analyzer, Message: fmt.Sprintf(format, args...)}
}

// suppressed reports whether a finding of the analyzer at the position is
// covered by an ignore directive on its line or the line above.
func (p *Package) suppressed(fileIdx int, analyzer string, pos token.Position) bool {
	lines := p.ignores[fileIdx]
	if lines == nil {
		return false
	}
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[ln] {
			if name == analyzer || name == "all" {
				return true
			}
		}
	}
	return false
}

// ignoreDirective is the comment prefix that suppresses a finding.
const ignoreDirective = "//acqlint:ignore"

// buildIgnores scans every comment for ignore directives, and validates
// pure assertions (their semantics live in the call graph; the mandatory
// reason is checked here, where every comment is visited).
func (p *Package) buildIgnores() {
	p.ignores = make(map[int]map[int][]string)
	for i, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, pureDirective) {
					if strings.TrimSpace(strings.TrimPrefix(c.Text, pureDirective)) == "" {
						p.badDirectives = append(p.badDirectives, p.diag("acqlint", c.Pos(),
							"malformed directive %q: want %s <reason>", c.Text, pureDirective))
					}
					continue
				}
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignoreDirective)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					p.badDirectives = append(p.badDirectives, p.diag("acqlint", c.Pos(),
						"malformed directive %q: want %s <analyzer> <reason>", c.Text, ignoreDirective))
					continue
				}
				if p.ignores[i] == nil {
					p.ignores[i] = make(map[int][]string)
				}
				line := p.Fset.Position(c.Pos()).Line
				p.ignores[i][line] = append(p.ignores[i][line], fields[0])
			}
		}
	}
}

// RunAll runs every enabled analyzer over every package, applies
// suppression directives, and returns the surviving diagnostics sorted by
// position. Malformed directives are always reported. Packages are
// analyzed in parallel (bounded by GOMAXPROCS); results are collected per
// package and fully ordered afterwards, so output is byte-identical run
// to run regardless of scheduling.
func RunAll(pkgs []*Package, enabled []*Analyzer) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range pkgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			perPkg[i] = runPackage(pkgs[i], enabled)
		}(i)
	}
	wg.Wait()
	var out []Diagnostic
	for _, ds := range perPkg {
		out = append(out, ds...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

// runPackage runs the enabled analyzers over one package and applies its
// suppression directives.
func runPackage(p *Package, enabled []*Analyzer) []Diagnostic {
	out := append([]Diagnostic(nil), p.badDirectives...)
	for _, a := range enabled {
		for _, d := range a.Run(p) {
			idx := -1
			for i, name := range p.FileNames {
				if name == d.Pos.Filename {
					idx = i
					break
				}
			}
			if idx >= 0 && p.suppressed(idx, a.Name, d.Pos) {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}
