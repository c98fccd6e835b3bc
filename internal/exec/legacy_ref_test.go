package exec

import (
	"context"
	"reflect"
	"testing"

	"acqp/internal/datagen"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
	"acqp/internal/trace"
)

// This file pins the streaming executor to the legacy tuple-at-a-time
// implementations it replaced. legacyRun/legacyRunExists/legacyRunLimit/
// legacyRunProfiled are verbatim ports of the pre-iterator entry points
// (per-row table walk, plan.Node.Execute per tuple); Execute must
// reproduce their Results bit for bit — float accumulation order
// included — across the paper's three dataset families.

func legacyRun(s *schema.Schema, p *plan.Node, q query.Query, tbl *table.Table) Result {
	res := Result{Acquisitions: make([]int64, s.NumAttrs())}
	acquired := make([]bool, s.NumAttrs())
	var row []schema.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		for i := range acquired {
			acquired[i] = false
		}
		got, cost := p.Execute(s, row, acquired)
		res.Tuples++
		res.TotalCost += cost
		if cost > res.MaxCost {
			res.MaxCost = cost
		}
		if got {
			res.Selected++
		}
		if got != q.Eval(row) {
			res.Mismatches++
		}
		for i, a := range acquired {
			if a {
				res.Acquisitions[i]++
			}
		}
	}
	return res
}

func legacyRunExists(s *schema.Schema, p *plan.Node, tbl *table.Table) (found bool, rowIdx int, cost float64) {
	acquired := make([]bool, s.NumAttrs())
	var row []schema.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		for i := range acquired {
			acquired[i] = false
		}
		got, c := p.Execute(s, row, acquired)
		cost += c
		if got {
			return true, r, cost
		}
	}
	return false, -1, cost
}

func legacyRunLimit(s *schema.Schema, p *plan.Node, tbl *table.Table, limit int) (rows []int, cost float64) {
	if limit <= 0 {
		return nil, 0
	}
	acquired := make([]bool, s.NumAttrs())
	var row []schema.Value
	for r := 0; r < tbl.NumRows() && len(rows) < limit; r++ {
		row = tbl.Row(r, row)
		for i := range acquired {
			acquired[i] = false
		}
		got, c := p.Execute(s, row, acquired)
		cost += c
		if got {
			rows = append(rows, r)
		}
	}
	return rows, cost
}

func legacyRunProfiled(s *schema.Schema, p *plan.Node, q query.Query, tbl *table.Table, prof *trace.ExecProfile) Result {
	ids := plan.NodeIDs(p)
	res := Result{Acquisitions: make([]int64, s.NumAttrs())}
	acquired := make([]bool, s.NumAttrs())
	var row []schema.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		for i := range acquired {
			acquired[i] = false
		}
		got, cost := legacyExecuteProfiled(s, p, ids, row, acquired, prof)
		prof.FinishTuple()
		res.Tuples++
		res.TotalCost += cost
		if cost > res.MaxCost {
			res.MaxCost = cost
		}
		if got {
			res.Selected++
		}
		if got != q.Eval(row) {
			res.Mismatches++
		}
		for i, a := range acquired {
			if a {
				res.Acquisitions[i]++
			}
		}
	}
	return res
}

// legacyExecuteProfiled mirrors plan.Node.Execute with per-node charge
// attribution, exactly as the pre-iterator RunProfiled did.
func legacyExecuteProfiled(s *schema.Schema, n *plan.Node, ids map[*plan.Node]int, row []schema.Value, acquired []bool, prof *trace.ExecProfile) (result bool, cost float64) {
	cur := n
	for {
		id, ok := ids[cur]
		if !ok {
			id = -1
		}
		prof.Visit(id)
		switch cur.Kind {
		case plan.Leaf:
			return cur.Result, cost
		case plan.Split:
			if !acquired[cur.Attr] {
				c := s.AcquisitionCost(cur.Attr, acquired)
				cost += c
				acquired[cur.Attr] = true
				prof.Charge(id, cur.Attr, c, 1)
			}
			if row[cur.Attr] >= cur.X {
				cur = cur.Right
			} else {
				cur = cur.Left
			}
		case plan.Seq:
			for _, pd := range cur.Preds {
				if !acquired[pd.Attr] {
					c := s.AcquisitionCost(pd.Attr, acquired)
					cost += c
					acquired[pd.Attr] = true
					prof.Charge(id, pd.Attr, c, 1)
				}
				if !pd.Eval(row[pd.Attr]) {
					return false, cost
				}
			}
			return true, cost
		default:
			panic("legacy ref: invalid node kind")
		}
	}
}

// identityCase is one dataset/seed instance of the sweep.
type identityCase struct {
	name  string
	s     *schema.Schema
	q     query.Query
	train *table.Table
	tbl   *table.Table
	p     *plan.Node
}

// identityCases builds 8 seeded instances per dataset family — Lab,
// Garden, and the Babu-style synthetic — 24 in total, each with a
// greedy conditional plan built on a disjoint training split.
func identityCases(t *testing.T) []identityCase {
	t.Helper()
	var cases []identityCase
	addCase := func(name string, tbl *table.Table, q query.Query) {
		t.Helper()
		s := tbl.Schema()
		train, test := tbl.Split(0.5)
		g := opt.Greedy{SPSF: opt.UniformSPSFSame(s, 4), MaxSplits: 3, Base: opt.SeqOpt}
		p, _ := g.Plan(context.Background(), stats.NewEmpirical(train), q)
		if p == nil {
			t.Fatalf("%s: planner returned no plan", name)
		}
		cases = append(cases, identityCase{name: name, s: s, q: q, train: train, tbl: test, p: p})
	}
	for seed := int64(1); seed <= 8; seed++ {
		lab := datagen.Lab(datagen.LabConfig{Motes: 10, Rows: 2400, Seed: seed, QuietMotes: 3})
		ls := lab.Schema()
		addCase("lab", lab, query.MustNewQuery(ls,
			query.Pred{Attr: datagen.LabLight, R: query.Range{Lo: 12, Hi: 31}},
			query.Pred{Attr: datagen.LabTemp, R: query.Range{Lo: schema.Value(4 + seed%4), Hi: 31}},
		))

		garden := datagen.Garden(datagen.GardenConfig{Motes: 3, Rows: 2400, Seed: seed})
		gs := garden.Schema()
		addCase("garden", garden, query.MustNewQuery(gs,
			query.Pred{Attr: datagen.GardenTempAttr(0), R: query.Range{Lo: schema.Value(14 + seed%3), Hi: 31}},
			query.Pred{Attr: datagen.GardenHumAttr(1), R: query.Range{Lo: 0, Hi: 15}},
		))

		synthCfg := datagen.SynthConfig{N: 8, Gamma: 3, Sel: 0.5, Rows: 2400, Seed: seed}
		synth := datagen.Synthetic(synthCfg)
		addCase("synth", synth, datagen.SynthQuery(synth.Schema()))
	}
	return cases
}

// TestExecuteMatchesLegacyAcrossDatasets is the old-vs-new identity
// sweep: 24 seeded dataset instances, each executed through the legacy
// reference and through Execute (plain, profiled, exists, limit). Every
// comparison is bit-exact — reflect.DeepEqual on Results, == on floats.
func TestExecuteMatchesLegacyAcrossDatasets(t *testing.T) {
	for _, tc := range identityCases(t) {
		want := legacyRun(tc.s, tc.p, tc.q, tc.tbl)
		got := execute(t, tc.s, tc.p, tc.q, tc.tbl, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Execute diverged from legacy:\n got %+v\nwant %+v", tc.name, got, want)
		}

		nNodes := len(tc.p.Preorder())
		wantProf := trace.NewExecProfile(nNodes, tc.s.NumAttrs())
		wantRes := legacyRunProfiled(tc.s, tc.p, tc.q, tc.tbl, wantProf)
		gotProf := trace.NewExecProfile(nNodes, tc.s.NumAttrs())
		gotRes := execute(t, tc.s, tc.p, tc.q, tc.tbl, Options{Profile: gotProf})
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("%s: profiled result diverged from legacy", tc.name)
		}
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Errorf("%s: execution profile diverged from legacy", tc.name)
		}

		wf, wr, wc := legacyRunExists(tc.s, tc.p, tc.tbl)
		ex := execute(t, tc.s, tc.p, query.Query{}, tc.tbl, Options{Exists: true, SkipVerify: true})
		if wf != ex.Found || wr != ex.FoundRow || wc != ex.TotalCost {
			t.Errorf("%s: Exists = (%v,%d,%v), legacy (%v,%d,%v)", tc.name, ex.Found, ex.FoundRow, ex.TotalCost, wf, wr, wc)
		}

		for _, limit := range []int{1, 5, tc.tbl.NumRows() + 1} {
			wRows, wCost := legacyRunLimit(tc.s, tc.p, tc.tbl, limit)
			lim := execute(t, tc.s, tc.p, query.Query{}, tc.tbl, Options{Limit: limit, SkipVerify: true})
			if !reflect.DeepEqual(lim.Rows, wRows) || lim.TotalCost != wCost {
				t.Errorf("%s: Limit %d = (%v,%v), legacy (%v,%v)",
					tc.name, limit, lim.Rows, lim.TotalCost, wRows, wCost)
			}
		}
	}
}

// TestExecuteBatchSizeInvariant is the batch-size property test: the
// Result is bit-identical at every batch size, including size 1 (every
// row its own batch) and sizes far beyond the table.
func TestExecuteBatchSizeInvariant(t *testing.T) {
	cases := identityCases(t)
	for _, tc := range []identityCase{cases[0], cases[1], cases[2]} {
		want := legacyRun(tc.s, tc.p, tc.q, tc.tbl)
		for _, bs := range []int{1, 7, 64, 4096} {
			if got := execute(t, tc.s, tc.p, tc.q, tc.tbl, Options{Source: NewTableSource(tc.tbl, bs)}); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: batch size %d changed the Result", tc.name, bs)
			}
		}
	}
}
