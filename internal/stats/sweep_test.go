package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// sweepWorld is one seeded case of the sweep property: an empirical
// context restricted to a box, and a predicate list to sweep it under.
type sweepWorld struct {
	s     *schema.Schema
	c     Cond
	box   query.Box
	preds []query.Pred
}

// randSweepWorld draws a schema of 2..5 attributes with domains of 2..9
// values, a correlated table of 0..300 rows, a context restricted on some
// attributes (sometimes to nothing at all), and 1..4 predicates, negated
// or not, that may share an attribute.
func randSweepWorld(seed int64) sweepWorld {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4)
	attrs := make([]schema.Attribute, n)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), K: 2 + rng.Intn(8), Cost: 1}
	}
	s := schema.New(attrs...)
	rows := 0
	if seed%7 != 3 { // every seventh world has an empty table
		rows = 1 + rng.Intn(300)
	}
	tbl := table.New(s, rows)
	row := make([]schema.Value, n)
	for r := 0; r < rows; r++ {
		driver := rng.Intn(9)
		for i := range row {
			v := driver + rng.Intn(3) - 1
			if rng.Intn(4) == 0 {
				v = rng.Intn(9)
			}
			row[i] = schema.Value(max(v, 0) % s.K(i))
		}
		tbl.MustAppendRow(row)
	}
	w := sweepWorld{s: s, c: NewEmpirical(tbl).Root(), box: query.FullBox(s)}
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			continue
		}
		lo := rng.Intn(s.K(i))
		r := query.Range{Lo: schema.Value(lo), Hi: schema.Value(lo + rng.Intn(s.K(i)-lo))}
		w.c, w.box[i] = w.c.RestrictRange(i, r), r
	}
	for m := 1 + rng.Intn(4); len(w.preds) < m; {
		a := rng.Intn(n)
		lo := rng.Intn(s.K(a))
		p := query.Pred{
			Attr:    a,
			R:       query.Range{Lo: schema.Value(lo), Hi: schema.Value(lo + rng.Intn(s.K(a)-lo))},
			Negated: rng.Intn(3) == 0,
		}
		dup := false
		for _, q := range w.preds {
			dup = dup || q == p
		}
		if !dup {
			w.preds = append(w.preds, p)
		}
	}
	return w
}

// sameBits fails unless two float slices are bit-for-bit equal.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d values, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s[%d] = %v (%016x), want %v (%016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			return
		}
	}
}

// checkSide compares everything a SweepSide answers with the same
// questions put to the materialized child: the joint over all predicates
// and over those still undecided in the child's range, every predicate's
// histogram and probability, and the same again along a chain of
// AssumeTrue / RestrictPred(p, true) in a seeded order.
func checkSide(t *testing.T, what string, w sweepWorld, sd *SweepSide, child Cond, attr int, r query.Range, rng *rand.Rand) {
	t.Helper()
	var open []query.Pred
	for _, p := range w.preds {
		if p.Attr != attr || p.EvalRange(r) == query.Unknown {
			open = append(open, p)
		}
	}
	order := rng.Perm(len(w.preds))
	chain := NewCondChain(child)
	for step := 0; ; step++ {
		at := fmt.Sprintf("%s after %d assumed", what, step)
		sameBits(t, at+": MaskJoint(all)", sd.MaskJoint(w.preds), chain.MaskJoint(w.preds))
		sameBits(t, at+": MaskJoint(open)", sd.MaskJoint(open), chain.MaskJoint(open))
		for i, p := range w.preds {
			sameBits(t, fmt.Sprintf("%s: ProbPred(%v)", at, p),
				[]float64{sd.ProbPred(p)}, []float64{chain.ProbPred(p)})
			counts, n := sd.histCounts(i)
			hist := make([]float64, len(counts))
			for v, c := range counts {
				hist[v] = 1 / float64(len(counts))
				if n > 0 {
					hist[v] = float64(c) / float64(n)
				}
			}
			sameBits(t, fmt.Sprintf("%s: Hist(%d)", at, p.Attr), hist, chain.cur.Hist(p.Attr))
			if float64(n) != chain.cur.Weight() {
				t.Errorf("%s: %d rows, the child has %g", at, n, chain.cur.Weight())
			}
		}
		if step == len(order) {
			break
		}
		sd.AssumeTrue(w.preds[order[step]])
		chain.AssumeTrue(w.preds[order[step]])
	}
	sd.Reset()
	chain.Reset()
	sameBits(t, what+" after Reset: MaskJoint", sd.MaskJoint(w.preds), chain.MaskJoint(w.preds))
}

// sweepAndCheck sweeps one attribute at every split point of its box
// range — both edges included, where one child holds a single value — and
// checks both sides of every candidate.
func sweepAndCheck(t *testing.T, w sweepWorld, sw *SplitSweep, attr int, seed int64, buf *SweepBuf) {
	t.Helper()
	r := w.box[attr]
	var xs []schema.Value
	for x := r.Lo + 1; x <= r.Hi; x++ {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(seed))
	visited := 0
	sw.Attr(attr, xs, buf, func(i int, lo, hi *SweepSide) {
		if i != visited {
			t.Errorf("attr %d: candidate %d visited at position %d", attr, i, visited)
		}
		visited++
		x := xs[i]
		loR, hiR := query.Range{Lo: r.Lo, Hi: x - 1}, query.Range{Lo: x, Hi: r.Hi}
		checkSide(t, fmt.Sprintf("attr %d x %d low", attr, x), w, lo, w.c.RestrictRange(attr, loR), attr, loR, rng)
		checkSide(t, fmt.Sprintf("attr %d x %d high", attr, x), w, hi, w.c.RestrictRange(attr, hiR), attr, hiR, rng)
	})
	if visited != len(xs) {
		t.Errorf("attr %d: %d of %d candidates visited", attr, visited, len(xs))
	}
}

// TestSplitSweepMatchesMaterializedChildren is the sweep's contract: for
// every candidate split of every attribute, both sides answer bit-for-bit
// what RestrictRange and the Cond methods answer on the materialized
// child. The seeds cover empty contexts (the uniform fallback), binary
// domains, single-value children at both edges of the box range, negated
// predicates, two predicates on one attribute, and predicates on the swept
// attribute that a child's range decides.
func TestSplitSweepMatchesMaterializedChildren(t *testing.T) {
	var empty, decided, shared, negated int
	var buf SweepBuf
	for seed := int64(0); seed < 60; seed++ {
		w := randSweepWorld(seed)
		sw := NewSplitSweep(w.c, w.preds)
		if sw == nil {
			t.Fatalf("seed %d: no sweep for an empirical context", seed)
		}
		if w.c.Weight() == 0 {
			empty++
		}
		onAttr := make(map[int]int)
		for _, p := range w.preds {
			onAttr[p.Attr]++
			if p.Negated {
				negated++
			}
			if r := w.box[p.Attr]; r.Size() > 1 && p.EvalRange(r) == query.Unknown {
				decided++ // some split of r decides p in one child
			}
		}
		for _, n := range onAttr {
			if n > 1 {
				shared++
			}
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// One SweepBuf across attributes and seeds, as a sequential
			// search reuses it: stale contents must never show.
			for attr := 0; attr < w.s.NumAttrs(); attr++ {
				sweepAndCheck(t, w, sw, attr, seed, &buf)
			}
		})
	}
	if empty == 0 || decided == 0 || shared == 0 || negated == 0 {
		t.Errorf("the seeds miss a case: %d empty contexts, %d decidable predicates, %d shared attributes, %d negated predicates",
			empty, decided, shared, negated)
	}
}

// TestSplitSweepConcurrent sweeps every attribute of one shared parent at
// once, as Greedy does at Parallelism > 1. Under -race it proves a
// SplitSweep is only read by Attr.
func TestSplitSweepConcurrent(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		w := randSweepWorld(seed)
		sw := NewSplitSweep(w.c, w.preds)
		var wg sync.WaitGroup
		for attr := 0; attr < w.s.NumAttrs(); attr++ {
			for rep := 0; rep < 2; rep++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sweepAndCheck(t, w, sw, attr, seed, nil)
				}()
			}
		}
		wg.Wait()
	}
}

// TestSplitSweepOnlyForEmpiricalContexts pins the two cases that stay on
// the Cond path: weighted cells, whose float weights sum in row order, and
// predicate lists wider than a mask.
func TestSplitSweepOnlyForEmpiricalContexts(t *testing.T) {
	tbl := buildTable(t)
	p := query.Pred{Attr: 1, R: query.Range{Lo: 0, Hi: 1}}
	if NewSplitSweep(Compress(tbl).Root(), []query.Pred{p}) != nil {
		t.Error("a weighted context got a sweep")
	}
	if NewSplitSweep(NewEmpirical(tbl).Root(), make([]query.Pred, MaxJointPreds+1)) != nil {
		t.Errorf("%d predicates got a sweep", MaxJointPreds+1)
	}
	if NewSplitSweep(NewEmpirical(tbl).Root(), []query.Pred{p}) == nil {
		t.Error("an empirical context got no sweep")
	}
}
