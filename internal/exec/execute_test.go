package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
	"acqp/internal/trace"
)

// synthRow fills dst with a deterministic pseudo-random binary tuple for
// global row r — the same values every call, so a FuncSource over it can
// be replayed and cross-checked without materializing anything.
func synthRow(dst []schema.Value, r int) {
	x := uint64(r)*6364136223846793005 + 1442695040888963407
	for a := range dst {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		dst[a] = schema.Value((x >> uint(7*a)) & 1)
	}
}

// TestExecuteStreamsLargerThanMemorySource pins the bounded-memory
// contract: a 300k-row source that exists only as a generator function
// executes batch by batch, and the verified Result (Mismatches counts
// every row against ground truth) matches an independent count of the
// satisfying tuples.
func TestExecuteStreamsLargerThanMemorySource(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	const rows = 300_000
	wantSelected := 0
	probe := make([]schema.Value, s.NumAttrs())
	for r := 0; r < rows; r++ {
		synthRow(probe, r)
		if q.Eval(probe) {
			wantSelected++
		}
	}
	emitted := 0
	src := NewFuncSource(s.NumAttrs(), 0, func(dst []schema.Value) (bool, error) {
		if emitted >= rows {
			return false, nil
		}
		synthRow(dst, emitted)
		emitted++
		return true, nil
	})
	res := execute(t, s, p, q, nil, Options{Source: src})
	if res.Tuples != rows {
		t.Errorf("Tuples = %d, want %d", res.Tuples, rows)
	}
	if res.Selected != wantSelected {
		t.Errorf("Selected = %d, want %d", res.Selected, wantSelected)
	}
	if res.Mismatches != 0 {
		t.Errorf("Mismatches = %d", res.Mismatches)
	}
}

// TestExecuteFuncSourceMatchesTable pins that a generator-backed source
// produces a Result bit-identical to the same rows materialized in a
// table.
func TestExecuteFuncSourceMatchesTable(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	tbl := testTable()
	r := 0
	var row []schema.Value
	src := NewFuncSource(s.NumAttrs(), 3, func(dst []schema.Value) (bool, error) {
		if r >= tbl.NumRows() {
			return false, nil
		}
		row = tbl.Row(r, row)
		copy(dst, row)
		r++
		return true, nil
	})
	got := execute(t, s, p, q, nil, Options{Source: src})
	if want := execute(t, s, p, q, tbl, Options{}); !reflect.DeepEqual(got, want) {
		t.Errorf("FuncSource result %+v != table result %+v", got, want)
	}
}

// TestExecuteCancellationMidRun pins the context contract: cancellation
// is observed between batches, execution stops with a partial Result,
// and the error wraps ctx.Err().
func TestExecuteCancellationMidRun(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const rows = 10_000
	const cancelAt = 1_000
	emitted := 0
	src := NewFuncSource(s.NumAttrs(), 64, func(dst []schema.Value) (bool, error) {
		if emitted == cancelAt {
			cancel()
		}
		if emitted >= rows {
			return false, nil
		}
		synthRow(dst, emitted)
		emitted++
		return true, nil
	})
	res, err := Execute(ctx, Request{
		Schema: s, Plan: p, Query: q, Options: Options{Source: src},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled wrap", err)
	}
	if res.Tuples < cancelAt || res.Tuples >= rows {
		t.Errorf("Tuples = %d, want a partial count in [%d,%d)", res.Tuples, cancelAt, rows)
	}
	if want := fmt.Sprintf("exec: execution interrupted after %d tuples", res.Tuples); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not report the partial tuple count", err)
	}
}

// TestExecuteCancelledBeforeStart pins that an already-cancelled context
// never pulls a batch.
func TestExecuteCancelledBeforeStart(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pulled := false
	src := NewFuncSource(s.NumAttrs(), 0, func(dst []schema.Value) (bool, error) {
		pulled = true
		return false, nil
	})
	res, err := Execute(ctx, Request{
		Schema: s, Plan: p, Query: q, Options: Options{Source: src},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if pulled {
		t.Error("cancelled execution still pulled a batch")
	}
	if res.Tuples != 0 {
		t.Errorf("Tuples = %d, want 0", res.Tuples)
	}
}

// TestExecuteValidation pins the typed-error contract of the unified
// entry point.
func TestExecuteValidation(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSeq(q.Preds)
	tbl := testTable()
	src := NewTableSource(tbl, 0)
	s2 := schema.New(schema.Attribute{Name: "x", K: 2, Cost: 1}, schema.Attribute{Name: "y", K: 2, Cost: 1})
	src2 := NewTableSource(table.New(s2, 0), 0)
	cases := []struct {
		name string
		req  Request
	}{
		{"missing schema", Request{Plan: p, Query: q, Options: Options{Source: src}}},
		{"missing plan", Request{Schema: s, Query: q, Options: Options{Source: src}}},
		{"missing source", Request{Schema: s, Plan: p, Query: q}},
		{"exists+limit", Request{Schema: s, Plan: p, Query: q,
			Options: Options{Source: src, Exists: true, Limit: 2}}},
		{"negative limit", Request{Schema: s, Plan: p, Query: q,
			Options: Options{Source: src, Limit: -1}}},
		{"order without random access", Request{Schema: s, Plan: p, Query: q,
			Options: Options{Source: NewFuncSource(s.NumAttrs(), 0, func([]schema.Value) (bool, error) { return false, nil }), Order: []int{0}}}},
		{"split attribute out of range", Request{Schema: s2, Options: Options{Source: src2},
			Plan: plan.NewSplit(7, 1, plan.NewLeaf(false), plan.NewLeaf(true))}},
		{"seq predicate out of range", Request{Schema: s2, Options: Options{Source: src2},
			Plan: plan.NewSeq([]query.Pred{{Attr: 5, R: query.Range{Lo: 1, Hi: 1}}})}},
		{"query predicate out of range", Request{Schema: s2, Plan: plan.NewLeaf(true), Options: Options{Source: src2},
			Query: query.Query{Preds: []query.Pred{{Attr: 9, R: query.Range{Lo: 1, Hi: 1}}}}}},
	}
	for _, tc := range cases {
		if _, err := Execute(context.Background(), tc.req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%s: err = %v, want ErrInvalidRequest", tc.name, err)
		}
	}
}

// TestExecuteOrderedVisitsInOrder pins the Order option against a
// hand-computed visit sequence.
func TestExecuteOrderedVisitsInOrder(t *testing.T) {
	s := testSchema()
	p := plan.NewSeq(testQuery(s).Preds)
	tbl := testTable()
	// Row 4 ({1,1,1}) satisfies; visiting it first must make it the
	// existential witness even though row 0 also satisfies.
	res := execute(t, s, p, query.Query{}, tbl, Options{Exists: true, SkipVerify: true, Order: []int{4, 0, 1}})
	if !res.Found || res.FoundRow != 4 {
		t.Errorf("Found=%v FoundRow=%d, want witness row 4", res.Found, res.FoundRow)
	}
}

// TestExecuteAllocs gates the executor's allocations per run over a
// 4,096-row TableSource, plain and profiled: compiling the plan and the
// per-run accounting allocate a fixed handful, independent of the row
// count. The bound is 1.2x the measured 5, both plain and profiled.
func TestExecuteAllocs(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("race detector instrumentation allocates; ci.sh runs this gate without -race")
	}
	s := testSchema()
	q := testQuery(s)
	p := plan.NewSplit(0, 1, plan.NewSeq(q.Preds), plan.NewSeq([]query.Pred{q.Preds[1], q.Preds[0]}))
	tbl := table.New(s, 4096)
	row := make([]schema.Value, s.NumAttrs())
	for r := 0; r < 4096; r++ {
		synthRow(row, r)
		tbl.MustAppendRow(row)
	}
	for _, prof := range []*trace.ExecProfile{nil, trace.NewExecProfile(len(p.Preorder()), s.NumAttrs())} {
		allocs := testing.AllocsPerRun(20, func() { execute(t, s, p, q, tbl, Options{Profile: prof}) })
		if allocs > 6 {
			t.Errorf("Execute (profiled=%v) allocates %.0f/run, gate is 6", prof != nil, allocs)
		}
	}
}
