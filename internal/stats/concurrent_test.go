package stats

import (
	"math"
	"sync"
	"testing"

	"acqp/internal/query"
)

// TestConcurrentCondReaders hammers one shared Cond (and children derived
// from it) from many goroutines. Run under -race it proves the sync.Once
// publication of the lazy histogram/prefix caches: every reader must see
// fully computed, identical statistics, and concurrent Restrict calls must
// only read the shared parent.
func TestConcurrentCondReaders(t *testing.T) {
	tbl := buildTable(t)
	dists := map[string]func() Dist{
		"empirical": func() Dist { return NewEmpirical(tbl) },
		"weighted":  func() Dist { return Compress(tbl) },
	}
	for name, newDist := range dists {
		newDist := newDist
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			root := newDist().Root()
			wantHist := append([]float64(nil), root.Hist(1)...)
			wantP := root.ProbRange(2, query.Range{Lo: 1, Hi: 2})

			// The root of a fresh distribution, whose caches are cold (an
			// Empirical hands every caller one root), shared by all readers.
			shared := newDist().Root()
			const readers = 16
			var wg sync.WaitGroup
			errs := make(chan string, readers)
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; iter < 50; iter++ {
						h := shared.Hist(1)
						for v := range h {
							if math.Abs(h[v]-wantHist[v]) > 1e-12 {
								errs <- "histogram mismatch under concurrency"
								return
							}
						}
						if p := shared.ProbRange(2, query.Range{Lo: 1, Hi: 2}); math.Abs(p-wantP) > 1e-12 {
							errs <- "ProbRange mismatch under concurrency"
							return
						}
						// Deriving children concurrently must only read the
						// shared parent.
						child := shared.RestrictRange(0, query.Range{Lo: 0, Hi: 1})
						child.Hist(2)
						shared.RestrictPred(query.Pred{Attr: 1, R: query.Range{Lo: 0, Hi: 2}}, true).ProbPred(
							query.Pred{Attr: 2, R: query.Range{Lo: 0, Hi: 3}})
					}
				}()
			}
			wg.Wait()
			close(errs)
			for msg := range errs {
				t.Error(msg)
			}
		})
	}
}

// TestConcurrentHistIdentity checks that concurrent first-callers of Hist
// agree on one published slice: the cache hands every goroutine the same
// backing array, never a privately recomputed copy.
func TestConcurrentHistIdentity(t *testing.T) {
	shared := NewEmpirical(buildTable(t)).Root()
	const readers = 8
	ptrs := make([]*float64, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ptrs[g] = &shared.Hist(1)[0]
		}()
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if ptrs[g] != ptrs[0] {
			t.Fatalf("goroutine %d saw a different published histogram slice", g)
		}
	}
}
