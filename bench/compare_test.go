package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func oneWorkload(name string, values map[string]float64) runFile {
	m := map[string]metric{}
	for k, v := range values {
		m[k] = metric{Value: v, Unit: "x"}
	}
	return runFile{Workloads: []runResult{{Workload: name, Attempted: 1, Metrics: m}}}
}

func TestCompareAppliesTheBounds(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	writeJSON(t, spec, map[string]any{"end_to_end": []map[string]any{
		{"name": "sat_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
		{"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "p90_ms", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "ontime_share", "unit": "ratio", "better": "higher", "bound": 0.02},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
	}})
	oldPath, newPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeJSON(t, oldPath, oneWorkload("plan_hit", map[string]float64{"sat_rps": 1000, "p50_ms": 1, "p90_ms": 2, "ontime_share": 0.99}))

	cases := []struct {
		name    string
		new     map[string]float64
		want    map[string]string
		wantErr bool
	}{
		{"within bounds", map[string]float64{"sat_rps": 950, "p50_ms": 1.05, "p90_ms": 1.9, "ontime_share": 0.985},
			map[string]string{"sat_rps": "unchanged", "p50_ms": "unchanged", "p90_ms": "unchanged", "ontime_share": "unchanged", "setup_s": "unresolved"}, false},
		{"moves", map[string]float64{"sat_rps": 1200, "p50_ms": 1.2, "p90_ms": 1.5, "ontime_share": 0.99},
			map[string]string{"sat_rps": "improved", "p50_ms": "regressed", "p90_ms": "improved"}, true},
		{"throughput falls", map[string]float64{"sat_rps": 880, "p50_ms": 1, "p90_ms": 2, "ontime_share": 0.99},
			map[string]string{"sat_rps": "regressed"}, true},
		{"late run", map[string]float64{"sat_rps": 500, "p50_ms": 3, "p90_ms": 9, "ontime_share": 0.90},
			map[string]string{"sat_rps": "unresolved", "p50_ms": "unresolved", "p90_ms": "unresolved", "ontime_share": "unresolved"}, false},
	}
	for _, c := range cases {
		writeJSON(t, newPath, oneWorkload("plan_hit", c.new))
		var out bytes.Buffer
		err := compareFiles(&out, spec, oldPath, newPath)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want an error: %v", c.name, err, c.wantErr)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 6 || f[0] != "plan_hit" {
				continue
			}
			if want, ok := c.want[f[1]]; ok && !strings.Contains(line, want) {
				t.Errorf("%s: %s: got %q, want %s", c.name, f[1], line, want)
			}
		}
	}
}
