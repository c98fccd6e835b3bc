package acqp_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"acqp"
	"acqp/internal/opt"
	"acqp/internal/query"
)

// TestOptionsZeroValueCompatibility pins the v1 API redesign's promise:
// the Options zero value still selects the historical behavior — greedy
// planning, 5 splits, 8 split points — byte-for-byte.
func TestOptionsZeroValueCompatibility(t *testing.T) {
	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)

	zeroNode, zeroCost, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zeroCost-1.1) > 1e-9 {
		t.Errorf("zero-value Options cost = %g, want the historical 1.1", zeroCost)
	}
	// The explicit defaults must agree with the zero value exactly.
	defNode, defCost, err := acqp.Optimize(context.Background(), d, q, acqp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(zeroCost) != math.Float64bits(defCost) {
		t.Errorf("DefaultOptions cost %g differs from zero-value cost %g", defCost, zeroCost)
	}
	if !bytes.Equal(acqp.Encode(zeroNode), acqp.Encode(defNode)) {
		t.Error("DefaultOptions plan differs from zero-value plan")
	}
	// Negative MaxSplits still means "purely sequential".
	seq, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: -1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumSplits() != 0 {
		t.Errorf("MaxSplits=-1 produced %d splits, want 0", seq.NumSplits())
	}
}

// TestOptimizeAlgorithmDispatch checks each Algorithm reaches its planner:
// costs match the Figure 2 analysis (greedy/exhaustive 1.1, the sequential
// baselines 1.5).
func TestOptimizeAlgorithmDispatch(t *testing.T) {
	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	cases := []struct {
		alg  acqp.Algorithm
		want float64
	}{
		{acqp.AlgorithmGreedy, 1.1},
		{acqp.AlgorithmExhaustive, 1.1},
		{acqp.AlgorithmCorrSeq, 1.5},
		{acqp.AlgorithmNaive, 1.5},
	}
	for _, c := range cases {
		_, cost, err := acqp.Optimize(context.Background(), d, q, acqp.Options{Algorithm: c.alg})
		if err != nil {
			t.Fatalf("%v: %v", c.alg, err)
		}
		if math.Abs(cost-c.want) > 1e-9 {
			t.Errorf("%v cost = %g, want %g", c.alg, cost, c.want)
		}
	}
}

// TestOptimizeParallelismDeterminism is the facade-level determinism
// check: the same plan at Parallelism 1 and 8 for both search algorithms.
func TestOptimizeParallelismDeterminism(t *testing.T) {
	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	for _, alg := range []acqp.Algorithm{acqp.AlgorithmGreedy, acqp.AlgorithmExhaustive} {
		n1, c1, err := acqp.Optimize(context.Background(), d, q, acqp.Options{Algorithm: alg, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		n8, c8, err := acqp.Optimize(context.Background(), d, q, acqp.Options{Algorithm: alg, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(c1) != math.Float64bits(c8) {
			t.Errorf("%v: cost %g at parallelism 1 vs %g at 8", alg, c1, c8)
		}
		if !bytes.Equal(acqp.Encode(n1), acqp.Encode(n8)) {
			t.Errorf("%v: plan differs between parallelism 1 and 8", alg)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []acqp.Options{
		{Algorithm: acqp.Algorithm(99)},
		{SplitPoints: -1},
		{Parallelism: -2},
		{Budget: -1},
		{DisseminationAlpha: -0.5},
	}
	for _, o := range bad {
		if _, _, err := acqp.Optimize(context.Background(), nil, acqp.Query{}, o); err == nil {
			t.Errorf("Optimize accepted invalid options %+v", o)
		}
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", o)
		}
	}
	if err := acqp.DefaultOptions().Validate(); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range []acqp.Algorithm{acqp.AlgorithmGreedy, acqp.AlgorithmExhaustive, acqp.AlgorithmCorrSeq, acqp.AlgorithmNaive} {
		got, err := acqp.ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip %v -> %q -> %v, err %v", a, a.String(), got, err)
		}
	}
	if _, err := acqp.ParseAlgorithm("quantum"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
}

// TestTypedSentinels pins the errors.Is relationships of the redesigned
// error surface: facade sentinels wrap the internal errors, and the
// facade's entry points return the facade sentinels.
func TestTypedSentinels(t *testing.T) {
	if !errors.Is(acqp.ErrBudgetExceeded, opt.ErrBudget) {
		t.Error("ErrBudgetExceeded does not wrap opt.ErrBudget")
	}
	if !errors.Is(acqp.ErrUnsatisfiable, query.ErrUnsatisfiable) {
		t.Error("ErrUnsatisfiable does not wrap query.ErrUnsatisfiable")
	}

	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	_, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{Algorithm: acqp.AlgorithmExhaustive, Budget: 1})
	if !errors.Is(err, acqp.ErrBudgetExceeded) {
		t.Errorf("budget-starved exhaustive returned %v, want ErrBudgetExceeded", err)
	}

	s := acqp.NewSchema(
		acqp.Attribute{Name: "a", K: 4, Cost: 1},
		acqp.Attribute{Name: "b", K: 4, Cost: 1},
	)
	_, err = acqp.Canonicalize(s, []acqp.Pred{
		{Attr: 0, R: acqp.Range{Lo: 0, Hi: 1}},
		{Attr: 0, R: acqp.Range{Lo: 3, Hi: 3}},
	})
	if !errors.Is(err, acqp.ErrUnsatisfiable) {
		t.Errorf("contradictory predicates returned %v, want ErrUnsatisfiable", err)
	}
	if !errors.Is(err, query.ErrUnsatisfiable) {
		t.Errorf("facade error does not chain to query.ErrUnsatisfiable: %v", err)
	}
}
