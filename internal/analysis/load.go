package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// skipDirs are directory names never descended into when expanding "..."
// patterns: fixtures, VCS state, and experiment output.
var skipDirs = map[string]bool{
	"testdata": true,
	"vendor":   true,
	".git":     true,
	"results":  true,
}

// Load parses and type-checks the packages named by the patterns, loading
// their repo imports as dependencies (see typeChecker), and returns the
// named packages only. root is the module root (scope checks, RelPath and
// dependency directories are computed against it). Patterns follow
// go-tool conventions: "./..." walks recursively, "dir/..." walks a
// subtree, and a plain directory names a single package. A directory under testdata may be named explicitly even
// though "..." walks skip it — that is how fixtures are linted. A parse or
// type error in a named package or a dependency is returned, with its
// position.
func Load(root string, patterns []string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dirSet := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !dirSet[d] {
			dirSet[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if base == "..." {
			base, recursive = ".", true
		} else if strings.HasSuffix(base, "/...") {
			base, recursive = strings.TrimSuffix(base, "/..."), true
		}
		if !filepath.IsAbs(base) {
			base = filepath.Join(root, base)
		}
		info, err := os.Stat(base)
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q: not a directory", pat)
		}
		if !recursive {
			add(base)
			continue
		}
		err = filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (skipDirs[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var pkgs []*Package
	fset := token.NewFileSet()
	tc := &typeChecker{fset: fset, root: root, byPath: make(map[string]*Package), checking: make(map[string]bool)}
	for _, dir := range dirs {
		p, err := parseDir(fset, root, dir)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
			tc.byPath[p.ImportPath] = p
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].RelPath < pkgs[j].RelPath })

	for _, p := range pkgs {
		if err := tc.check(p); err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.buildIgnores()
	}
	// The shared program view spans the dependencies too, so cross-package
	// passes follow calls into them.
	prog := &program{fset: fset, pkgs: append(append([]*Package(nil), pkgs...), tc.deps...)}
	for _, p := range pkgs {
		p.prog = prog
	}
	return pkgs, nil
}

// parseDir parses every .go file directly in dir; returns nil if the
// directory holds no Go files.
func parseDir(fset *token.FileSet, root, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		rel = ""
	}
	importPath := modulePath
	if rel != "" {
		importPath = modulePath + "/" + rel
	}
	p := &Package{Fset: fset, RelPath: rel, ImportPath: importPath}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		p.Files = append(p.Files, f)
		p.FileNames = append(p.FileNames, path)
	}
	if len(p.Files) == 0 {
		return nil, nil
	}
	for i, f := range p.Files {
		if !p.IsTestFile(i) {
			p.Name = f.Name.Name
			break
		}
	}
	if p.Name == "" {
		p.Name = strings.TrimSuffix(p.Files[0].Name.Name, "_test")
	}
	return p, nil
}

// walkNonTest applies fn to every non-test file of the package.
func (p *Package) walkNonTest(fn func(fileIdx int, f *ast.File)) {
	for i, f := range p.Files {
		if !p.IsTestFile(i) {
			fn(i, f)
		}
	}
}
