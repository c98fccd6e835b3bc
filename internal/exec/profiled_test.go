package exec

import (
	"math"
	"reflect"
	"testing"

	"acqp/internal/fault"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/trace"
)

func TestRunProfiledMatchesRun(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	tbl := testTable()
	// A seq plan and a split tree whose branches order the predicates
	// differently, so both branch nodes see distinct traffic.
	for name, p := range map[string]*plan.Node{
		"seq":   plan.NewSeq(q.Preds),
		"split": plan.NewSplit(0, 1, plan.NewSeq(q.Preds), plan.NewSeq([]query.Pred{q.Preds[1], q.Preds[0]})),
	} {
		want := execute(t, s, p, q, tbl, Options{})
		prof := trace.NewExecProfile(p.NumNodes(), s.NumAttrs())
		got := execute(t, s, p, q, tbl, Options{Profile: prof})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: profiled result differs:\n got %+v\nwant %+v", name, got, want)
		}
		// Bit-exact accounting: integer costs, so the per-node sum must
		// reproduce the executor's total exactly, not approximately.
		if prof.SumNodeCost() != want.TotalCost {
			t.Errorf("%s: SumNodeCost = %v, TotalCost = %v (bits %x vs %x)",
				name, prof.SumNodeCost(), want.TotalCost,
				math.Float64bits(prof.SumNodeCost()), math.Float64bits(want.TotalCost))
		}
		if prof.TotalCost != want.TotalCost || prof.Tuples != int64(want.Tuples) || prof.NodeVisits[0] != int64(want.Tuples) {
			t.Errorf("%s: profile TotalCost/Tuples/root visits = %v/%d/%d, want %v/%d/%d", name,
				prof.TotalCost, prof.Tuples, prof.NodeVisits[0], want.TotalCost, want.Tuples, want.Tuples)
		}
		for a := range want.Acquisitions {
			if prof.AttrAcquisitions[a] != want.Acquisitions[a] {
				t.Errorf("%s: attr %d acquisitions = %d, want %d", name, a, prof.AttrAcquisitions[a], want.Acquisitions[a])
			}
		}
	}
}

// TestRunProfiledNilDelegatesToRun pins the nil-profile path of the one
// plan walker against the legacy unprofiled executor.
func TestRunProfiledNilDelegatesToRun(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	tbl := testTable()
	p := plan.NewSplit(0, 1, plan.NewSeq(q.Preds), plan.NewLeaf(false))
	if got, want := execute(t, s, p, q, tbl, Options{Profile: nil}), legacyRun(s, p, q, tbl); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-profile Execute differs from the legacy executor:\n got %+v\nwant %+v", got, want)
	}
}

// TestRunFaultyProfiled checks attribution on the fault path: with an
// inactive injector the profile matches the pristine one; with faults
// the profile's TotalCost still accounts for every charge, including
// retries, surcharges, and backoff.
func TestRunFaultyProfiled(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	tbl := testTable()
	p := plan.NewSeq(q.Preds)

	// p=0: profile identical to the pristine profile.
	inj := fault.NewInjector(s.NumAttrs(), 42)
	prof := trace.NewExecProfile(p.NumNodes(), s.NumAttrs())
	res := execute(t, s, p, q, tbl, Options{Profile: prof,
		Faults: &FaultConfig{Injector: inj, Retrier: fault.DefaultRetrier()}})
	pristine := trace.NewExecProfile(p.NumNodes(), s.NumAttrs())
	execute(t, s, p, q, tbl, Options{Profile: pristine})
	if !reflect.DeepEqual(prof, pristine) {
		t.Errorf("p=0 fault profile differs from pristine profile:\n got %+v\nwant %+v", prof, pristine)
	}
	if prof.TotalCost != res.TotalCost {
		t.Errorf("p=0: profile TotalCost = %v, result TotalCost = %v", prof.TotalCost, res.TotalCost)
	}

	// Faulty run: every charge (retries included) lands in the profile.
	inj2 := fault.NewInjector(s.NumAttrs(), 7)
	if err := inj2.SetAll(fault.AttrFault{PTransient: 0.3}); err != nil {
		t.Fatalf("SetAll: %v", err)
	}
	prof2 := trace.NewExecProfile(p.NumNodes(), s.NumAttrs())
	res2 := execute(t, s, p, q, tbl, Options{Profile: prof2,
		Faults: &FaultConfig{Injector: inj2, Retrier: fault.DefaultRetrier()}})
	if math.Abs(prof2.TotalCost-res2.TotalCost) > 1e-9 || prof2.Tuples != int64(res2.Tuples) {
		t.Errorf("faulty: profile TotalCost/Tuples = %v/%d, result %v/%d", prof2.TotalCost, prof2.Tuples, res2.TotalCost, res2.Tuples)
	}
}

// TestRunFaultyProfiledReplan checks that charges made inside a
// replanned residual plan (whose nodes are not in the profiled plan)
// are kept in the run totals without corrupting per-node attribution.
func TestRunFaultyProfiledReplan(t *testing.T) {
	s := testSchema()
	q := testQuery(s)
	tbl := testTable()
	p := plan.NewSeq(q.Preds)

	inj := fault.NewInjector(s.NumAttrs(), 3)
	if err := inj.SetAttr(1, fault.AttrFault{Dead: true}); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	prof := trace.NewExecProfile(p.NumNodes(), s.NumAttrs())
	res := execute(t, s, p, q, tbl, Options{Profile: prof,
		Faults: &FaultConfig{Injector: inj, Retrier: fault.DefaultRetrier(), Policy: Replan}})
	if res.Fault.Replans == 0 {
		t.Fatalf("expected replans with a dead attribute")
	}
	if math.Abs(prof.TotalCost-res.TotalCost) > 1e-9 {
		t.Errorf("replan: profile TotalCost = %v, result TotalCost = %v", prof.TotalCost, res.TotalCost)
	}
	// Residual-plan charges are totals-only: the per-node sum may fall
	// short of the total but must never exceed it.
	if prof.SumNodeCost() > prof.TotalCost+1e-9 {
		t.Errorf("replan: SumNodeCost %v exceeds TotalCost %v", prof.SumNodeCost(), prof.TotalCost)
	}
}
