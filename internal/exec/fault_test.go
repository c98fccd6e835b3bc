package exec

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"acqp/internal/fault"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// corrSchema is a 3-attribute schema with a cheap conditioning attribute
// A, an expensive attribute B perfectly correlated with A, and a medium
// attribute C derived from A.
func corrSchema() *schema.Schema {
	return schema.New(
		schema.Attribute{Name: "A", K: 4, Cost: 1},
		schema.Attribute{Name: "B", K: 4, Cost: 10},
		schema.Attribute{Name: "C", K: 2, Cost: 5},
	)
}

// corrTrain holds the pure joint: B = A, C = 1 iff A >= 2.
func corrTrain(s *schema.Schema) *table.Table {
	tbl := table.New(s, 32)
	for a := schema.Value(0); a < 4; a++ {
		c := schema.Value(0)
		if a >= 2 {
			c = 1
		}
		for i := 0; i < 8; i++ {
			tbl.MustAppendRow([]schema.Value{a, a, c})
		}
	}
	return tbl
}

// corrTest is corrTrain plus 4 noise rows where C = 1 but B = 0, so
// optimistic fallbacks (replan dropping B's predicate, imputing B from A)
// produce exactly 4 false positives.
func corrTest(s *schema.Schema) *table.Table {
	train := corrTrain(s)
	tbl := table.New(s, train.NumRows()+4)
	var row []schema.Value
	for r := 0; r < train.NumRows(); r++ {
		row = train.Row(r, row)
		tbl.MustAppendRow(row)
	}
	for i := 0; i < 4; i++ {
		tbl.MustAppendRow([]schema.Value{3, 0, 1})
	}
	return tbl
}

func corrQuery(s *schema.Schema) query.Query {
	return query.MustNewQuery(s,
		query.Pred{Attr: 1, R: query.Range{Lo: 2, Hi: 3}},
		query.Pred{Attr: 2, R: query.Range{Lo: 1, Hi: 1}},
	)
}

// corrPlan conditions on A before evaluating the query, so A is already
// acquired evidence when B's acquisition fails.
func corrPlan(q query.Query) *plan.Node {
	return plan.NewSplit(0, 2, plan.NewSeq(q.Preds), plan.NewSeq(q.Preds))
}

// corrWorld bundles the correlated world: schema, query, plan, test
// table, and the training joint as an impute model.
func corrWorld() (*schema.Schema, query.Query, *plan.Node, *table.Table, stats.Dist) {
	s := corrSchema()
	q := corrQuery(s)
	return s, q, corrPlan(q), corrTest(s), stats.NewEmpirical(corrTrain(s))
}

func TestRunFaultyZeroFaultEquivalence(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	plans := map[string]*plan.Node{
		"seq":   plan.NewSeq(q.Preds),
		"split": plan.NewSplit(2, 1, plan.NewLeaf(false), plan.NewSeq(q.Preds)),
	}
	for name, p := range plans {
		base := execute(t, s, p, q, testTable(), Options{})
		for _, policy := range []FallbackPolicy{Abstain, Replan} {
			for _, inj := range []*fault.Injector{nil, fault.NewInjector(s.NumAttrs(), 7)} {
				res := execute(t, s, p, q, testTable(), Options{Faults: &FaultConfig{
					Injector: inj, Retrier: fault.DefaultRetrier(), Policy: policy,
				}})
				if *res.Fault != (FaultStats{}) {
					t.Errorf("%s/%v: fault counters nonzero without faults: %+v", name, policy, *res.Fault)
				}
				if res.Fault = nil; !reflect.DeepEqual(res, base) {
					t.Errorf("%s/%v: fault-free run differs from the pristine one:\n got %+v\nwant %+v", name, policy, res, base)
				}
			}
		}
	}
}

func TestRunFaultyFallbackPolicies(t *testing.T) {
	s, q, p, tbl, model := corrWorld()
	mkInjector := func() *fault.Injector {
		inj := fault.NewInjector(s.NumAttrs(), 1)
		if err := inj.SetAttr(1, fault.AttrFault{Dead: true}); err != nil {
			t.Fatal(err)
		}
		return inj
	}
	// Every tuple hits the dead attribute B exactly once. Fault damage is
	// classed as FP/FN, never as Mismatches: the 4 noise rows (A=3, B=0)
	// are false positives once B is imputed from A or its predicate is
	// dropped by the replan.
	cases := []struct {
		name         string
		cfg          FaultConfig
		want         FaultStats
		wantSelected int
		minAccuracy  float64
	}{
		{"abstain", FaultConfig{Injector: mkInjector(), Policy: Abstain},
			FaultStats{Failures: 36, Abstained: 36, AbstainedTrue: 16}, 0, 1}, // vacuous: nothing answered
		{"impute", FaultConfig{Injector: mkInjector(), Policy: Impute, Model: model},
			FaultStats{Failures: 36, Imputed: 36, FalsePositives: 4}, 20, 32.0 / 36},
		{"replan", FaultConfig{Injector: mkInjector(), Policy: Replan},
			FaultStats{Failures: 36, Replans: 36, FalsePositives: 4}, 20, 32.0 / 36},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := execute(t, s, p, q, tbl, Options{Faults: &tc.cfg})
			if res.Tuples != 36 {
				t.Fatalf("Tuples = %d", res.Tuples)
			}
			if *res.Fault != tc.want {
				t.Errorf("fault stats:\n got %+v\nwant %+v", *res.Fault, tc.want)
			}
			if got, want := res.Answered(), 36-tc.want.Abstained; got != want {
				t.Errorf("Answered = %d, want %d", got, want)
			}
			if res.Selected != tc.wantSelected || res.Mismatches != 0 {
				t.Errorf("Selected/Mismatches = %d/%d, want %d/0", res.Selected, res.Mismatches, tc.wantSelected)
			}
			if acc := res.Accuracy(); acc < tc.minAccuracy {
				t.Errorf("Accuracy = %.4f, want >= %.4f", acc, tc.minAccuracy)
			}
			// The dead board is only powered once, on the first tuple; the
			// executor learns the sensor is dead and stops paying for it.
			if res.Acquisitions[1] != 1 {
				t.Errorf("Acquisitions[B] = %d, want 1", res.Acquisitions[1])
			}
		})
	}
}

func TestRunFaultyImputeVsAbstainAnswersMore(t *testing.T) {
	// The acceptance invariant: under failures, Impute and Replan answer
	// strictly more tuples than Abstain at bounded extra cost.
	s, q, p, tbl, model := corrWorld()
	mk := func() *fault.Injector {
		inj := fault.NewInjector(s.NumAttrs(), 3)
		if err := inj.SetAttr(1, fault.AttrFault{PTransient: 0.5}); err != nil {
			t.Fatal(err)
		}
		return inj
	}
	ret := fault.DefaultRetrier()
	abstain := execute(t, s, p, q, tbl, Options{Faults: &FaultConfig{Injector: mk(), Retrier: ret, Policy: Abstain}})
	impute := execute(t, s, p, q, tbl, Options{Faults: &FaultConfig{Injector: mk(), Retrier: ret, Policy: Impute, Model: model}})
	replan := execute(t, s, p, q, tbl, Options{Faults: &FaultConfig{Injector: mk(), Retrier: ret, Policy: Replan}})
	if abstain.Fault.Abstained == 0 {
		t.Fatal("expected some ultimate failures at PTransient=0.5 with 2 retries")
	}
	if impute.Answered() <= abstain.Answered() || replan.Answered() <= abstain.Answered() {
		t.Errorf("Answered: impute=%d replan=%d abstain=%d; fallbacks must answer strictly more",
			impute.Answered(), replan.Answered(), abstain.Answered())
	}
	// Same injector and retrier: identical retry behaviour, so the extra
	// cost of answering more is bounded by the residual work.
	for name, r := range map[string]Result{"impute": impute, "replan": replan} {
		if r.TotalCost < abstain.TotalCost {
			t.Errorf("%s TotalCost %.1f < abstain %.1f: answering more cannot cost less here", name, r.TotalCost, abstain.TotalCost)
		}
		if r.TotalCost > 2*abstain.TotalCost {
			t.Errorf("%s TotalCost %.1f unreasonably above abstain %.1f", name, r.TotalCost, abstain.TotalCost)
		}
	}
}

// TestRunFaultyExactAccounting replays the injector and retrier decision-
// by-decision and checks the fault path's cost and counter accounting to
// the last bit.
func TestRunFaultyExactAccounting(t *testing.T) {
	s := schema.New(
		schema.Attribute{Name: "x", K: 4, Cost: 7},
		schema.Attribute{Name: "y", K: 2, Cost: 3},
	)
	q := query.MustNewQuery(s,
		query.Pred{Attr: 0, R: query.Range{Lo: 1, Hi: 3}},
		query.Pred{Attr: 1, R: query.Range{Lo: 1, Hi: 1}},
	)
	p := plan.NewSeq(q.Preds)
	tbl := table.New(s, 200)
	for r := 0; r < 200; r++ {
		tbl.MustAppendRow([]schema.Value{schema.Value(r % 4), schema.Value((r / 2) % 2)})
	}
	inj := fault.NewInjector(2, 11)
	if err := inj.SetAttr(0, fault.AttrFault{PTransient: 0.3, PTimeout: 0.2, PStale: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := inj.SetAttr(1, fault.AttrFault{PTransient: 0.4}); err != nil {
		t.Fatal(err)
	}
	ret := fault.Retrier{MaxRetries: 2, BackoffBase: 1.5, BackoffMult: 2, BackoffCap: 5, Jitter: 0.5, TimeoutCostFactor: 2}

	res := execute(t, s, p, q, tbl, Options{Faults: &FaultConfig{Injector: inj, Retrier: ret, Policy: Abstain}})
	got := res.Fault

	// Independent replay of the executor's charging contract.
	var want Result
	wantF := &FaultStats{}
	stale := make([]schema.Value, 2)
	haveStale := make([]bool, 2)
	var row []schema.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		var cost, retryCost float64
		answer := query.True
		touched := false
	preds:
		for _, pd := range q.Preds {
			a := pd.Attr
			var val schema.Value
			for attempt := 0; ; attempt++ {
				c := s.Cost(a)
				cost += c
				if attempt > 0 {
					retryCost += c
				}
				o := inj.Attempt(r, a, attempt)
				if o == fault.OK {
					val = row[a]
					stale[a], haveStale[a] = row[a], true
					break
				}
				if o == fault.Stale {
					if haveStale[a] {
						val = stale[a]
						wantF.StaleReads++
						if val != row[a] {
							touched = true
						}
					} else {
						val = row[a]
						stale[a], haveStale[a] = row[a], true
					}
					break
				}
				if o == fault.FailTimeout {
					surch := ret.TimeoutSurcharge(c)
					cost += surch
					retryCost += surch
				}
				if attempt >= ret.MaxRetries {
					wantF.Failures++
					answer = query.Unknown
					break preds
				}
				b := ret.Backoff(attempt+1, inj.JitterU(r, a, attempt+1))
				cost += b
				retryCost += b
				wantF.Retries++
			}
			if !pd.Eval(val) {
				answer = query.False
				break
			}
		}
		want.Tuples++
		want.TotalCost += cost
		if cost > want.MaxCost {
			want.MaxCost = cost
		}
		wantF.RetryCost += retryCost
		truth := q.Eval(row)
		switch answer {
		case query.Unknown:
			wantF.Abstained++
			if truth {
				wantF.AbstainedTrue++
			}
		case query.True:
			want.Selected++
			if !truth && touched {
				wantF.FalsePositives++
			}
		default:
			if truth && touched {
				wantF.FalseNegatives++
			}
		}
	}

	if *got != *wantF {
		t.Errorf("fault accounting:\n got %+v\nwant %+v", *got, *wantF)
	}
	if res.TotalCost != want.TotalCost || res.MaxCost != want.MaxCost || res.Selected != want.Selected || res.Mismatches != 0 {
		t.Errorf("got total=%v max=%v selected=%d mismatches=%d, want %v/%v/%d/0",
			res.TotalCost, res.MaxCost, res.Selected, res.Mismatches, want.TotalCost, want.MaxCost, want.Selected)
	}
	if got.Retries == 0 || got.StaleReads == 0 || got.Abstained == 0 {
		t.Errorf("test vacuous: retries=%d stale=%d abstained=%d — want all exercised", got.Retries, got.StaleReads, got.Abstained)
	}
}

func TestRunFaultySharedInjectorParallel(t *testing.T) {
	// One Injector backing concurrent executors must be race-free and give
	// every goroutine bit-identical results (run with -race in CI).
	s, q, p, tbl, model := corrWorld()
	inj := fault.NewInjector(s.NumAttrs(), 17)
	if err := inj.SetAll(fault.AttrFault{PTransient: 0.3, PStale: 0.1}); err != nil {
		t.Fatal(err)
	}
	cfg := FaultConfig{Injector: inj, Retrier: fault.DefaultRetrier(), Policy: Impute, Model: model}
	base := execute(t, s, p, q, tbl, Options{Faults: &cfg})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Execute(context.Background(), Request{Schema: s, Plan: p, Query: q,
				Options: Options{Source: NewTableSource(tbl, 0), Faults: &cfg}})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res, base) {
				t.Errorf("concurrent run differs:\n got %+v\nwant %+v", res, base)
			}
		}()
	}
	wg.Wait()
}

func TestNewTupleExecutorValidation(t *testing.T) {
	s, q, p, _, _ := corrWorld()
	if _, err := NewTupleExecutor(s, p, q, FaultConfig{Policy: Impute}); err == nil {
		t.Error("Impute without model accepted")
	}
	if _, err := NewTupleExecutor(s, p, q, FaultConfig{Policy: FallbackPolicy(9)}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := NewTupleExecutor(s, p, q, FaultConfig{Injector: fault.NewInjector(2, 0)}); err == nil {
		t.Error("injector/schema attribute mismatch accepted")
	}
	if _, err := NewTupleExecutor(s, plan.NewSplit(7, 1, p, p), q, FaultConfig{}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("split on attribute 7 of 3: err = %v, want ErrInvalidRequest", err)
	}
	if _, err := NewTupleExecutor(s, p, q, FaultConfig{Injector: fault.NewInjector(3, 0)}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestParseFallbackPolicy(t *testing.T) {
	for _, name := range []string{"abstain", "impute", "replan"} {
		pol, err := ParseFallbackPolicy(name)
		if err != nil || pol.String() != name {
			t.Errorf("round trip %q: %v, %v", name, pol, err)
		}
	}
	if _, err := ParseFallbackPolicy("retry-harder"); err == nil {
		t.Error("bad policy name accepted")
	}
}

func TestRunFaultyReplanCustomReplanner(t *testing.T) {
	s, q, p, tbl, _ := corrWorld()
	inj := fault.NewInjector(s.NumAttrs(), 1)
	if err := inj.SetAttr(1, fault.AttrFault{Dead: true}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg := FaultConfig{Injector: inj, Policy: Replan,
		Replanner: func(failed []bool, residual query.Query) (*plan.Node, error) {
			calls++
			if !failed[1] || len(residual.Preds) != 1 || residual.Preds[0].Attr != 2 {
				t.Errorf("replanner got failed=%v residual=%+v", failed, residual)
			}
			return plan.NewSeq(residual.Preds), nil
		}}
	res := execute(t, s, p, q, tbl, Options{Faults: &cfg})
	if calls != 1 {
		t.Errorf("replanner called %d times; residual plans must be cached per dead-set", calls)
	}
	if res.Fault.Replans != 36 || res.Answered() != 36 {
		t.Errorf("Replans=%d Answered=%d, want 36/36", res.Fault.Replans, res.Answered())
	}

	// A replanner whose plan is invalid or still touches the dead
	// attribute is rejected in favour of the safe sequential residual.
	for _, bad := range []*plan.Node{plan.NewSeq(q.Preds), plan.NewSplit(7, 1, p, p)} {
		cfg.Replanner = func([]bool, query.Query) (*plan.Node, error) { return bad, nil }
		if res := execute(t, s, p, q, tbl, Options{Faults: &cfg}); res.Answered() != 36 {
			t.Errorf("bad replanner output %v not recovered: answered %d", bad, res.Answered())
		}
	}
}
