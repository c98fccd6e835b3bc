package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunCleanTree(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../..."}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on clean tree; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean tree produced output:\n%s", out.String())
	}
}

// TestRunTypeError checks that a type error is a load error: exit 2 with
// the go/types message and its file:line:col on stderr.
func TestRunTypeError(t *testing.T) {
	dir := t.TempDir()
	src := "package broken\n\nvar x int = \"not an int\"\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{dir}, &out, &errb); code != 2 {
		t.Fatalf("exit %d on a type error, want 2; stdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "broken.go:3:13: cannot use") {
		t.Errorf("stderr does not carry the positioned type error:\n%s", errb.String())
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d from -list", code)
	}
	for _, name := range []string{"floatcmp", "globalrand", "maporder", "panicpolicy", "errdrop"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, out.String())
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-disable", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation:\n%s", errb.String())
	}
}

// TestRunJSON checks the machine-readable report CI archives: the
// finding list mirrors the text diagnostics, the package count is filled
// in, and a clean (fully disabled) run still emits a well-formed
// report with a non-null findings array.
func TestRunJSON(t *testing.T) {
	const dir = "../../internal/analysis/testdata/src/ctxfix"
	var out, errb bytes.Buffer
	if code := run([]string{"-json", dir}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, errb.String())
	}
	var report struct {
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
		Count      int      `json:"count"`
		Packages   int      `json:"packages"`
		Analyzers  []string `json:"analyzers"`
		DurationMS *int64   `json:"duration_ms"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("unmarshal report: %v\n%s", err, out.String())
	}
	if report.Count != 2 || len(report.Findings) != 2 {
		t.Errorf("count=%d findings=%d, want 2/2", report.Count, len(report.Findings))
	}
	for _, f := range report.Findings {
		if f.Analyzer != "ctxbg" || f.Line == 0 || f.Col == 0 || !strings.HasSuffix(f.File, "ctxfix.go") {
			t.Errorf("malformed finding: %+v", f)
		}
	}
	if report.Packages != 1 {
		t.Errorf("packages=%d, want 1", report.Packages)
	}
	hasDetflow := false
	for _, name := range report.Analyzers {
		hasDetflow = hasDetflow || name == "detflow"
	}
	if !hasDetflow {
		t.Errorf("analyzers list missing detflow: %v", report.Analyzers)
	}
	if report.DurationMS == nil {
		t.Error("duration_ms missing from report")
	}

	// A clean run keeps the shape: count 0 and findings [] (never null).
	out.Reset()
	errb.Reset()
	if code := run([]string{"-json", "-disable", "ctxbg", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d with ctxbg disabled, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `"findings": []`) {
		t.Errorf("clean report findings not an empty array:\n%s", out.String())
	}
}

// TestRunNegativeFixtures runs the CLI against each analyzer's bad
// fixture and checks the exit status, the file:line:col diagnostic shape,
// and that -disable removes exactly the targeted findings.
func TestRunNegativeFixtures(t *testing.T) {
	const fixtures = "../../internal/analysis/testdata/src"
	cases := []struct {
		dir      string
		analyzer string
		findings int
	}{
		{fixtures + "/internal/plan/floatfix", "floatcmp", 3},
		{fixtures + "/randfix", "globalrand", 3},
		{fixtures + "/mapfix", "maporder", 3},
		{fixtures + "/panicfix", "panicpolicy", 2},
		{fixtures + "/cmd/panictool", "panicpolicy", 1},
		{fixtures + "/errfix", "errdrop", 3},
		{fixtures + "/ctxfix", "ctxbg", 2},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		if code := run([]string{c.dir}, &out, &errb); code != 1 {
			t.Errorf("%s: exit %d, want 1; stderr:\n%s", c.dir, code, errb.String())
			continue
		}
		lineRe := regexp.MustCompile(`\.go:\d+:\d+: ` + c.analyzer + `: `)
		if got := len(lineRe.FindAllString(out.String(), -1)); got != c.findings {
			t.Errorf("%s: %d %s diagnostics, want %d:\n%s", c.dir, got, c.analyzer, c.findings, out.String())
		}
		// Disabling the analyzer must silence its fixture completely
		// (these fixtures are clean under every other analyzer).
		out.Reset()
		errb.Reset()
		if code := run([]string{"-disable", c.analyzer, c.dir}, &out, &errb); code != 0 {
			t.Errorf("%s: exit %d with -disable %s, want 0:\n%s", c.dir, code, c.analyzer, out.String())
		}
	}
}
