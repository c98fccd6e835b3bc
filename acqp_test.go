package acqp_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"acqp"
)

// figure2World builds the paper's Figure 2 worked example through the
// public API: a free hour attribute and two unit-cost predicates whose
// selectivities flip between day and night.
func figure2World() (*acqp.Schema, *acqp.Table, acqp.Query) {
	s := acqp.NewSchema(
		acqp.Attribute{Name: "hour", K: 2, Cost: 0},
		acqp.Attribute{Name: "temp", K: 2, Cost: 1},
		acqp.Attribute{Name: "light", K: 2, Cost: 1},
	)
	tbl := acqp.NewTable(s, 200)
	add := func(count int, row []acqp.Value) {
		for i := 0; i < count; i++ {
			tbl.MustAppendRow(row)
		}
	}
	add(9, []acqp.Value{0, 1, 1})
	add(1, []acqp.Value{0, 1, 0})
	add(81, []acqp.Value{0, 0, 1})
	add(9, []acqp.Value{0, 0, 0})
	add(9, []acqp.Value{1, 1, 1})
	add(81, []acqp.Value{1, 1, 0})
	add(1, []acqp.Value{1, 0, 1})
	add(9, []acqp.Value{1, 0, 0})
	q, err := acqp.NewQuery(s,
		acqp.Pred{Attr: 1, R: acqp.Range{Lo: 1, Hi: 1}},
		acqp.Pred{Attr: 2, R: acqp.Range{Lo: 1, Hi: 1}},
	)
	if err != nil {
		panic(err)
	}
	return s, tbl, q
}

func TestPublicAPIFigure2(t *testing.T) {
	s, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)

	naive, naiveCost := acqp.NaivePlan(d, q)
	if math.Abs(naiveCost-1.5) > 1e-9 {
		t.Errorf("naive cost = %g, want 1.5", naiveCost)
	}
	if _, corrCost := acqp.CorrSeqPlan(d, q); math.Abs(corrCost-1.5) > 1e-9 {
		t.Errorf("corrseq cost = %g, want 1.5 (correlations need splits here)", corrCost)
	}
	// A sequential-only plan via the negative MaxSplits convention, and
	// the greedy base variant.
	if seqPlan, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: -1, UseGreedyBase: true}); err != nil {
		t.Fatal(err)
	} else if seqPlan.NumSplits() != 0 {
		t.Errorf("MaxSplits=-1 produced %d splits", seqPlan.NumSplits())
	}
	p, cost, err := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-1.1) > 1e-9 {
		t.Errorf("conditional cost = %g, want 1.1", cost)
	}
	// Execute both on the training data; the conditional plan must be
	// cheaper and both must be correct.
	nRes, err := acqp.Execute(context.Background(), s, naive, q, tbl, acqp.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cRes, err := acqp.Execute(context.Background(), s, p, q, tbl, acqp.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nRes.Mismatches != 0 || cRes.Mismatches != 0 {
		t.Fatalf("mismatches: naive=%d cond=%d", nRes.Mismatches, cRes.Mismatches)
	}
	if cRes.MeanCost() >= nRes.MeanCost() {
		t.Errorf("conditional (%g) not cheaper than naive (%g)", cRes.MeanCost(), nRes.MeanCost())
	}
}

func TestPublicAPIExhaustive(t *testing.T) {
	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, cost, err := acqp.Optimize(context.Background(), d, q, acqp.Options{
		Algorithm: acqp.AlgorithmExhaustive, SplitPoints: 4, Budget: 100_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-1.1) > 1e-9 {
		t.Errorf("exhaustive cost = %g, want 1.1", cost)
	}
	if p.NumSplits() == 0 {
		t.Error("exhaustive plan has no splits")
	}
}

func TestPublicAPIWireRoundTrip(t *testing.T) {
	s, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wire := acqp.Encode(p)
	if len(wire) != acqp.PlanSize(p) {
		t.Error("PlanSize disagrees with Encode")
	}
	back, err := acqp.Decode(s, wire)
	if err != nil {
		t.Fatal(err)
	}
	if acqp.Render(back, s) != acqp.Render(p, s) {
		t.Error("wire round trip changed the plan")
	}
}

func TestPublicAPIModels(t *testing.T) {
	_, tbl, q := figure2World()
	cl := acqp.FitChowLiu(tbl, 0.1)
	p, cost, err := acqp.Optimize(context.Background(), cl, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || cost <= 0 {
		t.Fatalf("model-backed optimize: plan=%v cost=%g", p, cost)
	}
	ind := acqp.FitIndependent(tbl, 0.1)
	if _, _, err := acqp.Optimize(context.Background(), ind, q, acqp.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISensorNetwork(t *testing.T) {
	s, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := acqp.NewNetwork(s, q, acqp.DefaultRadio(), acqp.LineTopology(4))
	if err != nil {
		t.Fatal(err)
	}
	st, err := net.Deploy(p, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mismatches != 0 || st.TuplesProcessed != tbl.NumRows() {
		t.Errorf("network stats: %+v", st)
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	lab := acqp.GenerateLab(acqp.LabConfig{Motes: 4, Rows: 2000, Seed: 1, QuietMotes: 1})
	if lab.NumRows() != 2000 {
		t.Error("lab generator row count")
	}
	garden := acqp.GenerateGarden(acqp.GardenConfig{Motes: 3, Rows: 500, Seed: 1})
	if garden.Schema().NumAttrs() != 10 {
		t.Error("garden schema shape")
	}
	synth := acqp.GenerateSynthetic(acqp.SynthConfig{N: 6, Gamma: 1, Sel: 0.5, Rows: 100, Seed: 1})
	q := acqp.SynthQuery(synth.Schema())
	if q.NumPreds() != 3 {
		t.Error("synthetic query shape")
	}
}

func TestPublicAPICompress(t *testing.T) {
	_, tbl, q := figure2World()
	w := acqp.Compress(tbl)
	if w.NumCells() != 8 { // 2^3 distinct tuples, all present
		t.Errorf("NumCells = %d, want 8", w.NumCells())
	}
	// Planning on the compressed distribution matches the raw one.
	_, rawCost, _ := acqp.Optimize(context.Background(), acqp.NewEmpirical(tbl), q, acqp.Options{})
	_, wCost, _ := acqp.Optimize(context.Background(), w, q, acqp.Options{})
	if math.Abs(rawCost-wCost) > 1e-9 {
		t.Errorf("compressed cost %g != raw cost %g", wCost, rawCost)
	}
}

// Example demonstrates the basic optimize-and-execute flow.
func Example() {
	s := acqp.NewSchema(
		acqp.Attribute{Name: "hour", K: 2, Cost: 0},
		acqp.Attribute{Name: "temp", K: 2, Cost: 1},
		acqp.Attribute{Name: "light", K: 2, Cost: 1},
	)
	_, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, cost, _ := acqp.Optimize(context.Background(), d, q, acqp.Options{MaxSplits: 3})
	fmt.Printf("expected cost: %.1f units\n", cost)
	fmt.Println(strings.Contains(acqp.Render(p, s), "hour"))
	// Output:
	// expected cost: 1.1 units
	// true
}

func TestPublicAPIBooleanQueries(t *testing.T) {
	s, tbl, _ := figure2World()
	d := acqp.NewEmpirical(tbl)
	// (temp AND light) OR night — a clause the conjunctive API cannot
	// express.
	e := acqp.BoolOr(
		acqp.BoolAnd(
			acqp.BoolPred(acqp.Pred{Attr: 1, R: acqp.Range{Lo: 1, Hi: 1}}),
			acqp.BoolPred(acqp.Pred{Attr: 2, R: acqp.Range{Lo: 1, Hi: 1}}),
		),
		acqp.BoolPred(acqp.Pred{Attr: 0, R: acqp.Range{Lo: 0, Hi: 0}}),
	)
	ex := acqp.BoolExhaustive{SPSF: acqp.FullSPSF(s)}
	node, cost, err := ex.Plan(d, e)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 || node == nil {
		t.Fatalf("plan=%v cost=%g", node, cost)
	}
	// Verify on every tuple of the training data.
	acquired := make([]bool, s.NumAttrs())
	var row []acqp.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		for i := range acquired {
			acquired[i] = false
		}
		got, _ := node.Execute(s, row, acquired)
		if got != e.Eval(row) {
			t.Fatalf("boolean plan wrong on row %d", r)
		}
	}
	g := acqp.BoolGreedy{SPSF: acqp.FullSPSF(s), MaxSplits: 4}
	if _, _, err := g.Plan(d, e); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPISQL(t *testing.T) {
	s, tbl, _ := figure2World()
	st, err := acqp.ParseSQL(s, "SELECT temp, light WHERE temp = 1 AND light = 1")
	if err != nil {
		t.Fatal(err)
	}
	q, ok := st.Conjunctive(s)
	if !ok {
		t.Fatal("conjunction not recognized")
	}
	d := acqp.NewEmpirical(tbl)
	_, cost, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-1.1) > 1e-9 {
		t.Errorf("SQL-parsed query cost = %g, want 1.1", cost)
	}
	// A disjunctive clause routes through ParseWhere + the boolean planner.
	e, err := acqp.ParseWhere(s, "temp = 1 OR light = 1")
	if err != nil {
		t.Fatal(err)
	}
	g := acqp.BoolGreedy{SPSF: acqp.FullSPSF(s), MaxSplits: 3}
	if _, _, err := g.Plan(d, e); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIAdaptiveStream(t *testing.T) {
	s, tbl, q := figure2World()
	a, err := acqp.NewAdaptive(s, q, tbl, acqp.StreamConfig{WindowSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	row := []acqp.Value{0, 0, 1}
	for i := 0; i < 500; i++ {
		row[0] = acqp.Value(i % 2)
		a.Process(row)
	}
	if a.Processed() != 500 {
		t.Errorf("Processed = %d", a.Processed())
	}
	if a.MeanCost() <= 0 {
		t.Errorf("MeanCost = %g", a.MeanCost())
	}
}

func TestPublicAPINetworkLifetime(t *testing.T) {
	s, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	net, err := acqp.NewNetwork(s, q, acqp.DefaultRadio(), acqp.StarTopology(2))
	if err != nil {
		t.Fatal(err)
	}
	lt, err := net.Lifetime(p, tbl, 50)
	if err != nil {
		t.Fatal(err)
	}
	if lt.DeadMote == -1 {
		t.Errorf("battery of 50 units should deplete: %+v", lt)
	}
}

func TestPublicAPIExecuteLimitAndExists(t *testing.T) {
	s, tbl, q := figure2World()
	d := acqp.NewEmpirical(tbl)
	p, _, err := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lim, err := acqp.Execute(context.Background(), s, p, acqp.Query{}, tbl, acqp.ExecOptions{Limit: 3, SkipVerify: true})
	if err != nil || len(lim.Rows) != 3 || lim.TotalCost <= 0 {
		t.Errorf("Limit 3 = %v, %g (%v)", lim.Rows, lim.TotalCost, err)
	}
	order, _ := acqp.RankByCheapEvidence(d, q, tbl, 0)
	ex, err := acqp.Execute(context.Background(), s, p, acqp.Query{}, tbl, acqp.ExecOptions{Exists: true, SkipVerify: true, Order: order})
	if err != nil || !ex.Found {
		t.Errorf("ordered exists found nothing (%v)", err)
	}
	if !strings.Contains(acqp.Dot(p, s), "digraph") {
		t.Error("Dot output malformed")
	}
	sp := acqp.Simplify(p, s)
	if acqp.PlanSize(sp) > acqp.PlanSize(p) {
		t.Error("Simplify grew the plan")
	}
}

// Example_sql shows the TinyDB-style SQL front end.
func Example_sql() {
	s, tbl, _ := figure2World()
	st, _ := acqp.ParseSQL(s, "SELECT temp, light WHERE temp = 1 AND light = 1")
	q, _ := st.Conjunctive(s)
	d := acqp.NewEmpirical(tbl)
	_, cost, _ := acqp.Optimize(context.Background(), d, q, acqp.Options{})
	fmt.Printf("planned %d-predicate query at %.1f units/tuple\n", q.NumPreds(), cost)
	// Output:
	// planned 2-predicate query at 1.1 units/tuple
}
