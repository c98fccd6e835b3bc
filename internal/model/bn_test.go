package model

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"acqp/internal/datagen"
	"acqp/internal/exec"
	"acqp/internal/opt"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
	"acqp/internal/trace"
)

// xorSchema is the 4-attribute fixture no single tree captures: two cheap
// inputs, an expensive XOR of them, and an expensive independent noise
// attribute.
func xorSchema() *schema.Schema {
	return schema.New(
		schema.Attribute{Name: "x0", K: 2, Cost: 1},
		schema.Attribute{Name: "x1", K: 2, Cost: 1},
		schema.Attribute{Name: "x2", K: 2, Cost: 100},
		schema.Attribute{Name: "x3", K: 2, Cost: 100},
	)
}

// xorTable samples x0, x1 ~ uniform, x2 = x0 XOR x1 flipped with
// probability noise, x3 ~ uniform independent. x2 is marginally
// independent of x0 alone and of x1 alone, so every pairwise MI involving
// it is ~0 and a Chow-Liu tree can never predict it; the pair (x0, x1)
// determines it almost surely.
func xorTable(rows int, noise float64, seed int64) *table.Table {
	s := xorSchema()
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New(s, rows)
	for i := 0; i < rows; i++ {
		x0 := schema.Value(rng.Intn(2))
		x1 := schema.Value(rng.Intn(2))
		x2 := x0 ^ x1
		if rng.Float64() < noise {
			x2 ^= 1
		}
		x3 := schema.Value(rng.Intn(2))
		tbl.MustAppendRow([]schema.Value{x0, x1, x2, x3})
	}
	return tbl
}

func TestBNRecoversXORStructure(t *testing.T) {
	tbl := xorTable(4000, 0.05, 21)
	m := FitBN(tbl, 0.5, 2)
	// The only real dependency ties {x0, x1, x2} together; any of the three
	// v-structure orientations (e.g. x1 = x0 XOR x2) encodes the same joint
	// and scores identically, so accept whichever the deterministic
	// tie-break picked: exactly one node of {0,1,2} has the other two as
	// parents. Discovering it at all is the point — every single edge has
	// ~zero gain, so a purely single-edge greedy can never find it.
	vStructs := 0
	for v := 0; v < 3; v++ {
		ps := m.Parents(v)
		if len(ps) == 2 && ps[0] != 3 && ps[1] != 3 {
			vStructs++
		}
	}
	if vStructs != 1 || m.NumEdges() != 2 {
		for v := 0; v < 4; v++ {
			t.Logf("parents[%d] = %v", v, m.Parents(v))
		}
		t.Fatalf("expected exactly one v-structure over {x0,x1,x2}, got %d (edges %d)", vStructs, m.NumEdges())
	}
	if got := m.Parents(3); len(got) != 0 {
		t.Errorf("independent x3 learned parents %v", got)
	}
}

func TestBNMatchesXORConditionals(t *testing.T) {
	tbl := xorTable(8000, 0.05, 22)
	m := FitBN(tbl, 0.5, 2)
	one := query.Range{Lo: 1, Hi: 1}
	zero := query.Range{Lo: 0, Hi: 0}
	// P(x2=1 | x0=0, x1=1) ~= 0.95.
	p := m.Root().RestrictRange(0, zero).RestrictRange(1, one).ProbRange(2, one)
	if math.Abs(p-0.95) > 0.03 {
		t.Errorf("BN P(x2=1 | x0=0, x1=1) = %g, want ~0.95", p)
	}
	// The tree cannot do better than the marginal ~0.5 here.
	cl := FitChowLiu(tbl, 0.5)
	pcl := cl.Root().RestrictRange(0, zero).RestrictRange(1, one).ProbRange(2, one)
	if math.Abs(pcl-0.5) > 0.1 {
		t.Logf("note: Chow-Liu predicted %g for the XOR conditional", pcl)
	}
	if math.Abs(p-0.95) >= math.Abs(pcl-0.95) {
		t.Errorf("BN (%g) no closer to 0.95 than Chow-Liu (%g)", p, pcl)
	}
}

// The acceptance fixture: on the XOR workload, plans built from the BN
// must measure strictly cheaper on held-out data than plans built from
// the Chow-Liu tree, because only the BN sees that acquiring the two
// cheap inputs makes the expensive XOR attribute nearly deterministic.
func TestBNPlansBeatChowLiuOnXOR(t *testing.T) {
	train := xorTable(6000, 0.05, 23)
	test := xorTable(4000, 0.05, 24)
	s := xorSchema()
	q := query.MustNewQuery(s,
		query.Pred{Attr: 2, R: query.Range{Lo: 1, Hi: 1}},
		query.Pred{Attr: 3, R: query.Range{Lo: 1, Hi: 1}},
	)
	// The exhaustive planner, not greedy: the XOR benefit only appears
	// after conditioning on BOTH cheap inputs, and greedy's one-split
	// lookahead sees zero gain for the first split. The schema is 4 binary
	// attributes, so exhaustive search is trivially cheap here.
	e := &opt.Exhaustive{SPSF: opt.FullSPSF(s)}
	measure := func(d stats.Dist) float64 {
		node, _, err := e.Plan(context.Background(), d, q)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		res, err := exec.Execute(context.Background(), exec.Request{
			Schema: s, Plan: node, Query: q,
			Options: exec.Options{Source: exec.NewTableSource(test, 0)},
		})
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if res.Mismatches != 0 {
			t.Fatalf("plan mismatches ground truth on %d tuples", res.Mismatches)
		}
		return res.MeanCost()
	}
	bnCost := measure(FitBN(train, 0.5, 2))
	clCost := measure(FitChowLiu(train, 0.5))
	if !(bnCost < clCost) {
		t.Errorf("BN plan cost %g not strictly below Chow-Liu %g", bnCost, clCost)
	}
}

// On a distribution whose true structure is a tree, the BN should learn
// (approximately) that tree and agree with empirical conditionals.
func TestBNMatchesEmpiricalOnChain(t *testing.T) {
	tbl := chainTable(50000, 25)
	m := FitBN(tbl, 0.01, 2)
	emp := stats.NewEmpirical(tbl)
	r0 := query.Range{Lo: 0, Hi: 0}
	target := query.Range{Lo: 0, Hi: 1}
	got := m.Root().RestrictRange(0, r0).ProbRange(2, target)
	want := emp.Root().RestrictRange(0, r0).ProbRange(2, target)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("P(x2 in [0,1] | x0=0): BN %g, empirical %g", got, want)
	}
	got = m.Root().RestrictRange(0, r0).RestrictRange(1, r0).ProbRange(2, target)
	want = emp.Root().RestrictRange(0, r0).RestrictRange(1, r0).ProbRange(2, target)
	if math.Abs(got-want) > 0.03 {
		t.Errorf("P(x2 | x0=0, x1=0): BN %g, empirical %g", got, want)
	}
}

func TestBNDeterministicFit(t *testing.T) {
	tbl := xorTable(2000, 0.05, 26)
	a := FitBN(tbl, 0.5, 2)
	b := FitBN(tbl, 0.5, 2)
	for v := 0; v < 4; v++ {
		pa, pb := a.Parents(v), b.Parents(v)
		if len(pa) != len(pb) {
			t.Fatalf("attr %d: parents %v vs %v", v, pa, pb)
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("attr %d: parents %v vs %v", v, pa, pb)
			}
		}
		for i := range a.cpt[v] {
			if math.Abs(a.cpt[v][i]-b.cpt[v][i]) > 0 {
				t.Fatalf("attr %d: CPTs differ at cell %d", v, i)
			}
		}
	}
}

func TestBNImpossibleEvidenceUniform(t *testing.T) {
	tbl := xorTable(500, 0.05, 27)
	m := FitBN(tbl, 0.5, 2)
	c := m.Root().
		RestrictRange(0, query.Range{Lo: 0, Hi: 0}).
		RestrictRange(0, query.Range{Lo: 1, Hi: 1})
	if c.Weight() != 0 {
		t.Fatalf("impossible evidence weight = %g", c.Weight())
	}
	h := c.Hist(2)
	for _, v := range h {
		if math.Abs(v-0.5) > 1e-12 {
			t.Errorf("impossible-evidence hist not uniform: %v", h)
		}
	}
}

// TestBNInferenceAllocs gates one planner step on the service-sized lab
// network: the root, one restriction and the posterior of every
// attribute. Each posterior runs a precompiled elimination program on
// pooled scratch memory, so the step allocates the conditioning contexts
// and the published histograms and nothing per factor. The race runtime
// allocates, so the test skips itself under -race; ci.sh runs it
// without.
func TestBNInferenceAllocs(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	d, err := Fit(NameBN, datagen.Lab(datagen.LabConfig{Motes: 45, Rows: 8000, Seed: 1, QuietMotes: 6}), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Schema().NumAttrs()
	r := query.Range{Lo: 0, Hi: schema.Value(d.Schema().K(datagen.LabLight) / 2)}
	allocs := testing.AllocsPerRun(20, func() {
		c := d.Root().RestrictRange(datagen.LabLight, r)
		for a := 0; a < n; a++ {
			c.Hist(a)
		}
	})
	if allocs > 40 {
		t.Errorf("root + restrict + %d posteriors: %.0f allocs, want <= 40", n, allocs)
	}
}

func TestBNPlannerDropIn(t *testing.T) {
	tbl := chainTable(5000, 28)
	s := chainSchema()
	q := query.MustNewQuery(s,
		query.Pred{Attr: 1, R: query.Range{Lo: 0, Hi: 1}},
		query.Pred{Attr: 2, R: query.Range{Lo: 0, Hi: 1}},
	)
	all := table.New(s, 64)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			for c := 0; c < 4; c++ {
				all.MustAppendRow([]schema.Value{schema.Value(a), schema.Value(b), schema.Value(c)})
			}
		}
	}
	g := opt.Greedy{SPSF: opt.FullSPSF(s), MaxSplits: 3, Base: opt.SeqOpt}
	node, cost := g.Plan(context.Background(), FitBN(tbl, 0.1, 2), q)
	if r := node.Equivalent(s, q, all); r != -1 {
		t.Errorf("BN-backed plan wrong on tuple %d", r)
	}
	if cost <= 0 || math.IsInf(cost, 0) || math.IsNaN(cost) {
		t.Errorf("BN-backed plan cost = %g", cost)
	}
}

func TestFitRegistry(t *testing.T) {
	tbl := chainTable(500, 29)
	for _, name := range Names() {
		d, err := Fit(name, tbl, Opts{})
		if err != nil {
			t.Fatalf("Fit(%q): %v", name, err)
		}
		if d == nil || d.Schema() == nil {
			t.Fatalf("Fit(%q) returned nil dist", name)
		}
	}
	if _, err := Fit("nope", tbl, Opts{}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown name error = %v", err)
	}
	empty := table.New(chainSchema(), 0)
	if _, err := Fit(NameChowLiu, empty, Opts{}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("empty table error = %v", err)
	}
	if _, err := Fit(NameBN, nil, Opts{}); !errors.Is(err, ErrEmptyTable) {
		t.Errorf("nil table error = %v", err)
	}
	if _, err := Fit(NameBN, tbl, Opts{Alpha: -1}); !errors.Is(err, ErrBadOpts) {
		t.Errorf("negative alpha error = %v", err)
	}
	if _, err := Fit(NameBN, tbl, Opts{MaxParents: -1}); !errors.Is(err, ErrBadOpts) {
		t.Errorf("negative MaxParents error = %v", err)
	}
}

// The historical edge cases must no longer panic or poison the model
// with NaN: empty tables and alpha <= 0 degrade to uniform estimates.
func TestFitEdgeCasesNoNaN(t *testing.T) {
	empty := table.New(chainSchema(), 0)
	one := chainTable(1, 30)
	for _, tc := range []struct {
		name string
		tbl  *table.Table
	}{{"empty", empty}, {"one-row", one}} {
		for _, alpha := range []float64{-1, 0, 0.5} {
			dists := []stats.Dist{
				FitChowLiu(tc.tbl, alpha),
				FitIndependent(tc.tbl, alpha),
				FitBN(tc.tbl, alpha, 2),
			}
			for i, d := range dists {
				c := d.Root()
				for a := 0; a < 3; a++ {
					var sum float64
					for _, p := range c.Hist(a) {
						if math.IsNaN(p) || math.IsInf(p, 0) {
							t.Fatalf("%s alpha=%g dist %d attr %d: hist has NaN/Inf", tc.name, alpha, i, a)
						}
						sum += p
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("%s alpha=%g dist %d attr %d: hist sums to %g", tc.name, alpha, i, a, sum)
					}
				}
				if w := c.Weight(); math.IsNaN(w) || w < 0 {
					t.Errorf("%s alpha=%g dist %d: weight %g", tc.name, alpha, i, w)
				}
			}
		}
	}
}
