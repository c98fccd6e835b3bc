package opt

import (
	"bytes"
	"context"
	"testing"
	"time"

	"acqp/internal/trace"
)

// TestExhaustiveByteIdenticalWithSpan pins the tentpole invariant at the
// opt layer: attaching a trace span to the context never changes planner
// output. Cost bits and encoded plan must match the untraced run exactly.
func TestExhaustiveByteIdenticalWithSpan(t *testing.T) {
	sawSearch := false
	for seed := int64(0); seed < 8; seed++ {
		s, d, q := randWorld(seed)
		for _, par := range []int{1, 4} {
			e := Exhaustive{SPSF: UniformSPSFSame(s, 4), Parallelism: par}
			node, cost, err := e.Plan(context.Background(), d, q)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			want := fingerprint(node, cost)

			sp := trace.NewSpan(time.Now)
			e2 := Exhaustive{SPSF: UniformSPSFSame(s, 4), Parallelism: par}
			node2, cost2, err := e2.Plan(trace.NewContext(context.Background(), sp), d, q)
			if err != nil {
				t.Fatalf("seed %d traced: %v", seed, err)
			}
			got := fingerprint(node2, cost2)
			if got.costBits != want.costBits {
				t.Errorf("seed %d par %d: traced cost bits differ", seed, par)
			}
			if !bytes.Equal(got.encoded, want.encoded) {
				t.Errorf("seed %d par %d: traced plan differs", seed, par)
			}

			// A query decided at the root expands nothing, so search
			// counters are asserted across the seed set, not per seed.
			if sp.Counter(trace.Expanded) > 0 {
				sawSearch = true
				if sp.Counter(trace.Candidates) == 0 {
					t.Errorf("seed %d: expansions but no candidates recorded", seed)
				}
				if sp.Counter(trace.MemoStores) == 0 {
					t.Errorf("seed %d: expansions but no memo stores recorded", seed)
				}
				if par > 1 && sp.Counter(trace.Spawned)+sp.Counter(trace.Inlined) == 0 {
					t.Errorf("seed %d: parallel run recorded no pool placements", seed)
				}
			}
			snap := sp.Snapshot()
			if len(snap.Phases) == 0 || snap.Phases[0].Name != "exhaustive-search" {
				t.Errorf("seed %d: missing exhaustive-search phase: %+v", seed, snap.Phases)
			}
		}
	}
	if !sawSearch {
		t.Errorf("no seed recorded any exhaustive expansions")
	}
}

// TestGreedyByteIdenticalWithSpan is the same invariant for the greedy
// planner, plus its phase structure and leaf-expansion counter.
func TestGreedyByteIdenticalWithSpan(t *testing.T) {
	sawCandidates := false
	for seed := int64(100); seed < 108; seed++ {
		s, d, q := randWorld(seed)
		for _, par := range []int{1, 4} {
			g := Greedy{SPSF: UniformSPSFSame(s, 4), MaxSplits: 4, Base: SeqOpt, Parallelism: par}
			node, cost := g.Plan(context.Background(), d, q)
			want := fingerprint(node, cost)

			sp := trace.NewSpan(time.Now)
			g2 := Greedy{SPSF: UniformSPSFSame(s, 4), MaxSplits: 4, Base: SeqOpt, Parallelism: par}
			node2, cost2 := g2.Plan(trace.NewContext(context.Background(), sp), d, q)
			got := fingerprint(node2, cost2)
			if got.costBits != want.costBits {
				t.Errorf("seed %d par %d: traced cost bits differ", seed, par)
			}
			if !bytes.Equal(got.encoded, want.encoded) {
				t.Errorf("seed %d par %d: traced plan differs", seed, par)
			}

			// A root plan that is already a decided leaf evaluates no
			// candidates, so candidate counting is asserted across the
			// seed set rather than per seed.
			if sp.Counter(trace.Candidates) > 0 {
				sawCandidates = true
			}
			if node.NumSplits() > 0 && sp.Counter(trace.LeafExpansions) == 0 {
				t.Errorf("seed %d: plan has splits but no leaf expansions recorded", seed)
			}
			snap := sp.Snapshot()
			names := make(map[string]bool, len(snap.Phases))
			for _, p := range snap.Phases {
				names[p.Name] = true
			}
			for _, want := range []string{"greedy-seed", "greedy-expand", "greedy-simplify"} {
				if !names[want] {
					t.Errorf("seed %d: phase %q missing from %+v", seed, want, snap.Phases)
				}
			}
		}
	}
	if !sawCandidates {
		t.Errorf("no seed recorded any greedy candidates")
	}
}

// TestGreedySearchCountersIgnoreParallelism pins the candidate accounting:
// the reduction replays the sequential search whatever evaluated the
// candidates, so Candidates (split points of attributes whose acquisition
// cost could still beat the best split so far), Pruned (of those, the ones
// abandoned after their low side) and LeafExpansions do not depend on the
// worker count — and neither does acqserved_search_candidates.
func TestGreedySearchCountersIgnoreParallelism(t *testing.T) {
	counters := []trace.Counter{trace.Candidates, trace.Pruned, trace.LeafExpansions}
	sawPruned := false
	for seed := int64(100); seed < 124; seed++ {
		s, d, q := randWorld(seed)
		var want [3]int64
		for i, par := range parallelismLevels() {
			sp := trace.NewSpan(time.Now)
			g := Greedy{SPSF: UniformSPSFSame(s, 4), MaxSplits: 4, Base: SeqOpt, Parallelism: par}
			g.Plan(trace.NewContext(context.Background(), sp), d, q)
			for k, c := range counters {
				got := sp.Counter(c)
				if i == 0 {
					want[k] = got
				} else if got != want[k] {
					t.Errorf("seed %d: %v = %d at parallelism %d, %d at parallelism 1", seed, c, got, par, want[k])
				}
			}
		}
		if want[0] < want[1] {
			t.Errorf("seed %d: %d candidates pruned of %d evaluated", seed, want[1], want[0])
		}
		sawPruned = sawPruned || want[1] > 0
	}
	if !sawPruned {
		t.Errorf("no seed pruned a candidate; the test does not exercise the shared bound")
	}
}
