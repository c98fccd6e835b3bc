package model

import (
	"math"
	"slices"
	"sync"
	"testing"

	"acqp/internal/query"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// The conformance suite: every statistics backend behind stats.Dist —
// Empirical, Independent, ChowLiu, BN — must satisfy the probabilistic
// invariants the planners assume. Each check runs against the same seeded
// tables so a regression in any one backend fails by name.

func conformanceDists(t *testing.T, tbl *table.Table) map[string]stats.Dist {
	t.Helper()
	out := make(map[string]stats.Dist, len(Names()))
	for _, name := range Names() {
		d, err := Fit(name, tbl, Opts{})
		if err != nil {
			t.Fatalf("Fit(%q): %v", name, err)
		}
		out[name] = d
	}
	return out
}

// restrictChain applies a fixed conditioning chain that leaves plausible
// evidence on the chain fixture.
func restrictChain(c stats.Cond) stats.Cond {
	return c.
		RestrictRange(0, query.Range{Lo: 0, Hi: 1}).
		RestrictPred(query.Pred{Attr: 1, R: query.Range{Lo: 3, Hi: 3}, Negated: true}, true)
}

func TestConformanceHistNormalized(t *testing.T) {
	tbl := chainTable(3000, 41)
	for _, name := range Names() {
		d := conformanceDists(t, tbl)[name]
		for _, c := range []stats.Cond{d.Root(), restrictChain(d.Root())} {
			for a := 0; a < d.Schema().NumAttrs(); a++ {
				var sum float64
				for _, p := range c.Hist(a) {
					if p < 0 || p > 1 || math.IsNaN(p) {
						t.Errorf("%s attr %d: hist entry %g out of [0,1]", name, a, p)
					}
					sum += p
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s attr %d: hist sums to %g", name, a, sum)
				}
			}
		}
	}
}

func TestConformanceProbsInRange(t *testing.T) {
	tbl := chainTable(3000, 42)
	ranges := []query.Range{{Lo: 0, Hi: 0}, {Lo: 1, Hi: 2}, {Lo: 0, Hi: 3}}
	for name, d := range conformanceDists(t, tbl) {
		c := restrictChain(d.Root())
		for a := 0; a < d.Schema().NumAttrs(); a++ {
			for _, r := range ranges {
				p := c.ProbRange(a, r)
				if p < 0 || p > 1 || math.IsNaN(p) {
					t.Errorf("%s: ProbRange(%d, %v) = %g", name, a, r, p)
				}
				for _, neg := range []bool{false, true} {
					pp := c.ProbPred(query.Pred{Attr: a, R: r, Negated: neg})
					if pp < 0 || pp > 1 || math.IsNaN(pp) {
						t.Errorf("%s: ProbPred(%d, %v, neg=%v) = %g", name, a, r, neg, pp)
					}
				}
			}
		}
	}
}

// The chain rule ties Restrict* to ProbRange: restricting by a range must
// scale Weight() by exactly the probability the same context assigns to
// that range.
func TestConformanceChainRule(t *testing.T) {
	tbl := chainTable(3000, 43)
	r1 := query.Range{Lo: 0, Hi: 1}
	r2 := query.Range{Lo: 1, Hi: 3}
	for name, d := range conformanceDists(t, tbl) {
		c0 := d.Root()
		p1 := c0.ProbRange(0, r1)
		c1 := c0.RestrictRange(0, r1)
		if got, want := c1.Weight(), c0.Weight()*p1; math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("%s: one-step weight %g, want %g * %g", name, got, c0.Weight(), p1)
		}
		p2 := c1.ProbRange(2, r2)
		c2 := c1.RestrictRange(2, r2)
		if got, want := c2.Weight(), c1.Weight()*p2; math.Abs(got-want) > 1e-6*(1+want) {
			t.Errorf("%s: two-step weight %g, want %g * %g", name, got, c1.Weight(), p2)
		}
	}
}

func TestConformanceWeightMonotone(t *testing.T) {
	tbl := chainTable(3000, 44)
	for name, d := range conformanceDists(t, tbl) {
		c := d.Root()
		prev := c.Weight()
		if prev <= 0 {
			t.Fatalf("%s: root weight %g", name, prev)
		}
		steps := []func(stats.Cond) stats.Cond{
			func(c stats.Cond) stats.Cond { return c.RestrictRange(0, query.Range{Lo: 0, Hi: 2}) },
			func(c stats.Cond) stats.Cond {
				return c.RestrictPred(query.Pred{Attr: 1, R: query.Range{Lo: 0, Hi: 1}}, true)
			},
			func(c stats.Cond) stats.Cond { return c.RestrictRange(2, query.Range{Lo: 2, Hi: 3}) },
		}
		for i, step := range steps {
			c = step(c)
			w := c.Weight()
			if w > prev+1e-9 || w < 0 || math.IsNaN(w) {
				t.Errorf("%s: weight not monotone at step %d: %g -> %g", name, i, prev, w)
			}
			prev = w
		}
	}
}

// Backends publish lazily-computed statistics via sync.Once; a shared
// conditioning context must be safe for concurrent planner searches and
// must give every goroutine the bits a sequential run gives, which is
// what catches scratch memory shared between two concurrent inferences.
// Run with -race to make the safety half meaningful.
func TestConformanceConcurrentUse(t *testing.T) {
	tbl := chainTable(2000, 45)
	for name, d := range conformanceDists(t, tbl) {
		d := d
		t.Run(name, func(t *testing.T) {
			// results renders every probe's answers from root's
			// contexts as bit patterns, for goroutine g at step i.
			results := func(root stats.Cond, restricted stats.Cond, g, i int) []uint64 {
				a := (g + i) % 3
				var out []uint64
				for _, p := range root.Hist(a) {
					out = append(out, math.Float64bits(p))
				}
				out = append(out,
					math.Float64bits(restricted.ProbRange(a, query.Range{Lo: 0, Hi: 2})),
					math.Float64bits(restricted.Weight()))
				c := root.RestrictRange(a, query.Range{Lo: 1, Hi: 3})
				for _, p := range c.Hist((a + 1) % 3) {
					out = append(out, math.Float64bits(p))
				}
				return append(out, math.Float64bits(c.Weight()))
			}
			const goroutines, steps = 8, 20
			// The sequential answers come from a separate root, so the
			// shared one below computes everything under contention.
			seqRoot := d.Root()
			seqRestricted := seqRoot.RestrictRange(0, query.Range{Lo: 0, Hi: 1})
			want := make([][][]uint64, goroutines)
			for g := range want {
				for i := 0; i < steps; i++ {
					want[g] = append(want[g], results(seqRoot, seqRestricted, g, i))
				}
			}
			root := d.Root()
			restricted := root.RestrictRange(0, query.Range{Lo: 0, Hi: 1})
			got := make([][][]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < steps; i++ {
						got[g] = append(got[g], results(root, restricted, g, i))
					}
				}(g)
			}
			wg.Wait()
			for g := range want {
				for i := range want[g] {
					if !slices.Equal(got[g][i], want[g][i]) {
						t.Fatalf("goroutine %d step %d: bits %x, sequential %x", g, i, got[g][i], want[g][i])
					}
				}
			}
		})
	}
}
