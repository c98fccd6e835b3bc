package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "request", StartNS: 0, EndNS: 100, Parent: noParent, Request: 0},
		{Name: "serve", StartNS: 10, EndNS: 70, Parent: 0, Request: 0},
		{Name: "sql.Parse", StartNS: 20, EndNS: 30, Parent: 1, Request: 0},
		{Name: "opt.Greedy.Plan", StartNS: 30, EndNS: 65, Parent: 1, Request: 0},
		{Name: "sql.Parse", StartNS: 75, EndNS: 95, Parent: 0, Request: 0},
	}
	self := selfTimes(spans)
	want := map[string][]float64{"request": {20}, "serve": {15}, "sql.Parse": {10, 20}, "opt.Greedy.Plan": {35}}
	for name, w := range want {
		got := self[name]
		if len(got) != len(w) {
			t.Fatalf("%s: self times %v, want %v", name, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Errorf("%s: self times %v, want %v", name, got, w)
			}
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", noParent, 1); id != noParent {
		t.Errorf("a nil tracer opened span %d", id)
	}
	tr.end(noParent) // must not panic
}

func TestTraceFileRoundTrips(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", noParent, 7)
	child := tr.begin("serve.miss", root, 7)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) != 2 || file.Spans[1].Parent != 0 || file.Spans[1].Request != 7 || file.Spans[0].Parent != noParent {
		t.Fatalf("spans read back as %+v", file.Spans)
	}
	for _, s := range file.Spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 10, 9}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}
