package exec

import (
	"context"
	"math"
	"testing"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

func testSchema() *schema.Schema {
	return schema.New(
		schema.Attribute{Name: "h", K: 2, Cost: 0},
		schema.Attribute{Name: "a", K: 2, Cost: 10},
		schema.Attribute{Name: "b", K: 2, Cost: 5},
	)
}

func testTable() *table.Table {
	tbl := table.New(testSchema(), 8)
	for _, r := range [][]schema.Value{
		{0, 1, 1}, {0, 1, 0}, {0, 0, 1}, {0, 0, 0},
		{1, 1, 1}, {1, 1, 0}, {1, 0, 1}, {1, 0, 0},
	} {
		tbl.MustAppendRow(r)
	}
	return tbl
}

func testQuery(s *schema.Schema) query.Query {
	return query.MustNewQuery(s,
		query.Pred{Attr: 1, R: query.Range{Lo: 1, Hi: 1}},
		query.Pred{Attr: 2, R: query.Range{Lo: 1, Hi: 1}},
	)
}

// execute runs p over the whole of tbl (unless o names another source)
// through Execute, failing the test on error.
func execute(t *testing.T, s *schema.Schema, p *plan.Node, q query.Query, tbl *table.Table, o Options) Result {
	t.Helper()
	if o.Source == nil {
		o.Source = NewTableSource(tbl, 0)
	}
	res, err := Execute(context.Background(), Request{Schema: s, Plan: p, Query: q, Options: o})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunMetersCosts(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds) // a then b
	res := execute(t, s, p, q, testTable(), Options{})
	if res.Tuples != 8 {
		t.Fatalf("Tuples = %d", res.Tuples)
	}
	if res.Selected != 2 {
		t.Errorf("Selected = %d, want 2", res.Selected)
	}
	if res.Mismatches != 0 {
		t.Errorf("Mismatches = %d", res.Mismatches)
	}
	// All 8 tuples acquire a (10); the 4 with a=1 also acquire b (5).
	want := 8*10.0 + 4*5.0
	if math.Abs(res.TotalCost-want) > 1e-12 {
		t.Errorf("TotalCost = %g, want %g", res.TotalCost, want)
	}
	if res.MaxCost != 15 {
		t.Errorf("MaxCost = %g, want 15", res.MaxCost)
	}
	if res.MeanCost() != want/8 {
		t.Errorf("MeanCost = %g", res.MeanCost())
	}
	if res.Selectivity() != 0.25 {
		t.Errorf("Selectivity = %g", res.Selectivity())
	}
	if res.Acquisitions[1] != 8 || res.Acquisitions[2] != 4 || res.Acquisitions[0] != 0 {
		t.Errorf("Acquisitions = %v", res.Acquisitions)
	}
}

func TestRunDetectsMismatch(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	wrong := plan.NewLeaf(false)
	res := execute(t, s, wrong, q, testTable(), Options{})
	if res.Mismatches != 2 {
		t.Errorf("Mismatches = %d, want 2", res.Mismatches)
	}
}

func TestRunEmptyTable(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	res := execute(t, s, plan.NewSeq(q.Preds), q, table.New(s, 0), Options{})
	if res.Tuples != 0 || res.MeanCost() != 0 || res.Selectivity() != 0 {
		t.Errorf("empty table result = %+v", res)
	}
}

func TestRunExists(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	exists := Options{Exists: true, SkipVerify: true}
	res := execute(t, s, p, query.Query{}, testTable(), exists)
	if !res.Found || res.FoundRow != 0 {
		t.Errorf("found=%v idx=%d, want true/0", res.Found, res.FoundRow)
	}
	if res.TotalCost != 15 { // first tuple satisfies immediately: a + b
		t.Errorf("cost = %g, want 15", res.TotalCost)
	}
	// No satisfying tuple.
	res = execute(t, s, plan.NewLeaf(false), query.Query{}, testTable(), exists)
	if res.Found || res.FoundRow != -1 {
		t.Errorf("found=%v idx=%d, want false/-1", res.Found, res.FoundRow)
	}
}

func TestRunLimit(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	res := execute(t, s, p, query.Query{}, testTable(), Options{Limit: 1, SkipVerify: true})
	if len(res.Rows) != 1 || res.Rows[0] != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.TotalCost != 15 {
		t.Errorf("cost = %g", res.TotalCost)
	}
	res = execute(t, s, p, query.Query{}, testTable(), Options{Limit: 10, SkipVerify: true}) // more than available
	if len(res.Rows) != 2 || res.Tuples != 8 {
		t.Errorf("limit beyond matches: rows = %v over %d tuples", res.Rows, res.Tuples)
	}
	// Limit 0 is no limit: every tuple runs and no rows are collected.
	res = execute(t, s, p, query.Query{}, testTable(), Options{SkipVerify: true})
	if res.Rows != nil || res.Tuples != 8 {
		t.Errorf("limit 0: rows=%v tuples=%d", res.Rows, res.Tuples)
	}
}
