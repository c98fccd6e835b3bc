// Command acqlint runs the repo's domain-specific static-analysis suite
// (internal/analysis) over the named packages.
//
// Usage:
//
//	acqlint [-disable name,name] [-list] [-json] [patterns...]
//
// Patterns follow go-tool conventions ("./...", "internal/opt",
// "internal/..."); the default is "./...". Diagnostics print as
// file:line:col: analyzer: message, or as a machine-readable report with
// -json (findings plus the named-package count and the analysis duration,
// for CI archiving). A summary line with the same counts and timing
// always goes to stderr, so analysis-cost regressions are visible in CI
// logs. Repo packages the patterns import load as dependencies but are
// not reported on. Exit status is 0 for a clean tree, 1 when findings
// are reported, and 2 on usage or load errors — a parse or type error in
// a named package or a dependency is a load error.
//
// A finding is suppressed by a directive on its line or the line above:
//
//	//acqlint:ignore <analyzer> <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"acqp/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	disabled := make(map[string]bool)
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		} else if !known[name] {
			fmt.Fprintf(stderr, "acqlint: unknown analyzer %q (see -list)\n", name)
			return 2
		} else {
			disabled[name] = true
		}
	}
	var enabled []*analysis.Analyzer
	for _, a := range all {
		if !disabled[a.Name] {
			enabled = append(enabled, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "acqlint: %v\n", err)
		return 2
	}
	root := findModuleRoot(cwd)

	// Patterns are relative to the invoker's directory, not the module
	// root; rebase them.
	rebased := make([]string, len(patterns))
	for i, pat := range patterns {
		rebased[i] = rebase(cwd, root, pat)
	}

	start := time.Now()
	pkgs, err := analysis.Load(root, rebased)
	if err != nil {
		fmt.Fprintf(stderr, "acqlint: %v\n", err)
		return 2
	}
	diags := analysis.RunAll(pkgs, enabled)
	elapsed := time.Since(start)

	relName := func(name string) string {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
		return name
	}

	if *jsonOut {
		report := jsonReport{
			Findings:   []jsonFinding{},
			Count:      len(diags),
			Packages:   len(pkgs),
			DurationMS: elapsed.Milliseconds(),
		}
		for _, a := range enabled {
			report.Analyzers = append(report.Analyzers, a.Name)
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				File:     relName(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(stderr, "acqlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	fmt.Fprintf(stderr, "acqlint: %d finding(s) in %d package(s) in %dms\n",
		len(diags), len(pkgs), elapsed.Milliseconds())
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// jsonReport is the -json output shape, archived by CI.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Count      int           `json:"count"`
	Packages   int           `json:"packages"`
	Analyzers  []string      `json:"analyzers"`
	DurationMS int64         `json:"duration_ms"`
}

type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// rebase turns a cwd-relative pattern into a root-relative one.
func rebase(cwd, root, pat string) string {
	suffix := ""
	base := pat
	if base == "..." {
		base, suffix = ".", "/..."
	} else if strings.HasSuffix(base, "/...") {
		base, suffix = strings.TrimSuffix(base, "/..."), "/..."
	}
	if !filepath.IsAbs(base) {
		base = filepath.Join(cwd, base)
	}
	if rel, err := filepath.Rel(root, base); err == nil {
		return rel + suffix
	}
	return base + suffix
}

// findModuleRoot walks up from dir to the nearest go.mod; falls back to
// dir itself.
func findModuleRoot(dir string) string {
	for d := dir; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}
