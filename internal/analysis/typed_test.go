package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPartialLoadMatchesFull pins that a package's diagnostics do not
// depend on which other packages were named: repo imports outside the
// patterns load as typed dependencies, so linting a subset reports
// exactly what the full run reports for that subset.
func TestPartialLoadMatchesFull(t *testing.T) {
	repo := filepath.Join("..", "..")
	full, err := Load(repo, []string{"./..."})
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	render := func(pkgs []*Package) string {
		var b strings.Builder
		for _, d := range RunAll(pkgs, Analyzers()) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, patterns := range [][]string{
		{"internal/serve"},
		{"internal/stats"},
		{"internal/model"},
		{"internal/opt", "internal/stats"},
		{"internal/..."},
		{"cmd/..."},
		{"bench"},
	} {
		partial, err := Load(repo, patterns)
		if err != nil {
			t.Errorf("Load %v: %v", patterns, err)
			continue
		}
		named := make(map[string]bool)
		for _, p := range partial {
			named[p.RelPath] = true
			if p.TypesInfo == nil {
				t.Errorf("%v: %s carries no type information", patterns, p.RelPath)
			}
		}
		var subset []*Package
		for _, p := range full {
			if named[p.RelPath] {
				subset = append(subset, p)
			}
		}
		if len(subset) != len(partial) {
			t.Errorf("%v: loaded %d packages, the full load has %d of them", patterns, len(partial), len(subset))
		}
		if got, want := render(partial), render(subset); got != want {
			t.Errorf("%v: partial run differs from the full run\npartial:\n%sfull:\n%s", patterns, got, want)
		}
	}
}

// TestTypeErrorIsLoadError pins that a type error, in a named package or
// in a repo dependency loaded on demand, fails the load with its
// position, while a directory of test files alone still loads.
func TestTypeErrorIsLoadError(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"a/a.go":      "package a\n\nimport \"acqp/b\"\n\nvar X = b.Y\n",
		"b/b.go":      "package b\n\nvar Y int = \"not an int\"\n",
		"c/c_test.go": "package c\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, pat := range []string{"a", "b"} {
		_, err := Load(root, []string{pat})
		if err == nil || !strings.Contains(err.Error(), filepath.Join("b", "b.go")+":3:13") {
			t.Errorf("Load %s: err = %v, want the type error at b/b.go:3:13", pat, err)
		}
	}
	pkgs, err := Load(root, []string{"c"})
	if err != nil || len(pkgs) != 1 || pkgs[0].TypesInfo == nil {
		t.Errorf("Load of a test-only directory: %d packages, err %v; want one typed package", len(pkgs), err)
	}
}

// TestDriverDeterminism runs two independent loads of the fixture tree
// through the parallel driver and requires byte-identical rendered
// output — the property the paper's experiment scripts rely on when they
// diff lint reports across runs.
func TestDriverDeterminism(t *testing.T) {
	render := func() string {
		pkgs, err := Load(filepath.Join("testdata", "src"), []string{"./..."})
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		var b strings.Builder
		for _, d := range RunAll(pkgs, Analyzers()) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("fixture run produced no diagnostics; determinism check is vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d differs from first run\nfirst:\n%s\ngot:\n%s", i+2, first, got)
		}
	}
}

// TestDetflowMutation is the seeded-mutation acceptance check: copy the
// planner core (internal/opt and its repo dependency closure) into a
// scratch tree, introduce a transitive wall-clock read, and require
// exactly one detflow diagnostic naming the full call path, whether the
// whole tree is named or only internal/opt.
func TestDetflowMutation(t *testing.T) {
	// go list -deps ./internal/opt, repo packages only.
	closure := []string{
		"internal/floats", "internal/schema", "internal/query",
		"internal/table", "internal/stats", "internal/plan",
		"internal/trace", "internal/opt",
	}
	root := t.TempDir()
	repo := filepath.Join("..", "..")
	for _, dir := range closure {
		dst := filepath.Join(root, dir)
		if err := os.MkdirAll(dst, 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(filepath.Join(repo, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(repo, dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutation := `package opt

import "time"

func wallClock() time.Time { return time.Now() }

// SeedMutation hides a wall-clock read two calls deep.
func SeedMutation() float64 { return float64(wallClock().Nanosecond()) }
`
	if err := os.WriteFile(filepath.Join(root, "internal/opt/zz_mutation.go"), []byte(mutation), 0o644); err != nil {
		t.Fatal(err)
	}

	// The full tree and a load naming only internal/opt (its closure then
	// loads as dependencies) must both report the mutation.
	for _, patterns := range [][]string{{"./..."}, {"internal/opt"}} {
		pkgs, err := Load(root, patterns)
		if err != nil {
			t.Fatalf("Load %v of mutated tree: %v", patterns, err)
		}
		diags := RunAll(pkgs, []*Analyzer{DetFlow})
		if len(diags) != 1 {
			t.Fatalf("%v: got %d detflow diagnostics, want exactly 1:\n%v", patterns, len(diags), diags)
		}
		const path = "opt.SeedMutation -> opt.wallClock -> time.Now (wall-clock read)"
		if !strings.Contains(diags[0].Message, path) {
			t.Errorf("%v: diagnostic does not name the call path %q:\n%s", patterns, path, diags[0])
		}
		if !strings.HasSuffix(diags[0].Pos.Filename, "zz_mutation.go") {
			t.Errorf("%v: diagnostic anchored at %s, want the mutated entry point", patterns, diags[0].Pos.Filename)
		}
	}
}

// TestAnalyzerNameCompat pins the registry names: the detscope
// subsumption kept tracedet and faultdet addressable (fixtures, -disable
// flags, and ignore directives written against PR 4/5 keep working), and
// the typed-era analyzers are present.
func TestAnalyzerNameCompat(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, want := range []string{
		"floatcmp", "globalrand", "maporder", "panicpolicy", "errdrop",
		"condshare", "faultdet", "tracedet", "clusterdet", "chaosdet", "ctxbg", "detflow",
	} {
		if !names[want] {
			t.Errorf("analyzer %q missing from registry", want)
		}
	}
}
