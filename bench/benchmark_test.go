package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// lastLine parses the one-line result a single-workload run ends with.
func lastLine(t *testing.T, out string) (res struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func TestBenchmarkFileNamesTheWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness's constant is %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: the reason must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
}

func sameNames(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json names %s, the run does not report it", what, name)
		} else if m.Unit != unit {
			t.Errorf("%s: %s is reported in %s, BENCHMARK.json says %s", what, name, m.Unit, unit)
		}
	}
	var extra []string
	for name := range got {
		if _, ok := want[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		t.Errorf("%s: the run reports %v, which BENCHMARK.json does not name", what, extra)
	}
}

// TestQuick drives the smoke run the way CI does: one workload, a tenth
// of the length, against a live acqserved built from this checkout. It
// must print exactly the end-to-end metrics of BENCHMARK.json.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs acqserved")
	}
	b := readBenchmarkFile(t)
	var out bytes.Buffer
	start := time.Now()
	if err := run(context.Background(), []string{"-quick"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Logf("-quick took %s", time.Since(start).Round(time.Millisecond))
	res := lastLine(t, out.String())
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	want := map[string]string{}
	for _, e := range b.EndToEnd {
		want[e.Name] = e.Unit
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("%s: bound %g, better %q", e.Name, e.Bound, e.Better)
		}
	}
	sameNames(t, "end to end", res.Metrics, want)
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %g: an end-to-end metric must never be zero", name, m.Value)
		}
	}
}

// TestQuickTraced runs the traced pass of the same smoke run. It must
// print exactly the per-layer metrics of BENCHMARK.json and leave a
// trace file per workload whose spans nest.
func TestQuickTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs acqserved")
	}
	if raceDetector {
		// The pass plans in this process; instrumented, a Bayesian-network
		// plan overruns the server's 2 s deadline and comes back degraded.
		t.Skip("the in-process pass is too slow under the race detector")
	}
	b := readBenchmarkFile(t)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-quick", "-trace", "1"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	res := lastLine(t, out.String())
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v, failed %d\n%s", res.Correct, res.Failed, out.String())
	}
	want := map[string]string{}
	for _, l := range b.PerLayer {
		want[l.Name] = l.Unit
	}
	sameNames(t, "per layer", res.Metrics, want)

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join(root, "bench", "out", "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(file.Spans) == 0 {
			t.Errorf("%s: no spans", w.name)
		}
		for i, s := range file.Spans {
			if s.Parent >= i {
				t.Fatalf("%s: span %d names span %d as its parent", w.name, i, s.Parent)
			}
			if s.Parent >= 0 {
				p := file.Spans[s.Parent]
				if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Request != p.Request {
					t.Fatalf("%s: span %d (%s) does not lie within its parent %d (%s)", w.name, i, s.Name, s.Parent, p.Name)
				}
			}
		}
	}
}
