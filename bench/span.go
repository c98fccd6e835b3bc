package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: a call into a layer, the request it
// belongs to, and the span that caused it.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Request int    `json:"request"`
}

const noParent = -1

// tracer records spans in memory; they are written out when the pass
// ends. A nil *tracer records nothing and costs a nil check, so the
// untraced closed loop runs the same code with spans off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return noParent
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: parent, Request: request})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time in
// nanoseconds: its duration minus the part of it its children cover.
// Children of one parent are sequential calls and do not overlap, so
// the covered part is the sum of their durations.
func selfTimes(spans []span) map[string][]float64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS-covered[i]))
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the nearest-rank percentile of xs, which it sorts.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(p/100*float64(len(xs)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// write stores the spans as JSON: {"spans":[...]} in recording order, so
// a span's Parent is an index into the same array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string][]span{"spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
