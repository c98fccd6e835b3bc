package exec

import (
	"math/rand"
	"testing"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// existsWorld: a cheap beacon strongly predicts the expensive sensor.
func existsWorld(t *testing.T) (*schema.Schema, *table.Table, *table.Table, query.Query) {
	t.Helper()
	s := schema.New(
		schema.Attribute{Name: "beacon", K: 4, Cost: 1},
		schema.Attribute{Name: "sensor", K: 4, Cost: 100},
	)
	r := rand.New(rand.NewSource(1))
	hist := table.New(s, 3000)
	for i := 0; i < 3000; i++ {
		b := r.Intn(4)
		v := b
		if r.Float64() < 0.15 {
			v = r.Intn(4)
		}
		hist.MustAppendRow([]schema.Value{schema.Value(b), schema.Value(v)})
	}
	// Candidate set: mostly non-matching tuples first, matches late.
	candidates := table.New(s, 40)
	for i := 0; i < 36; i++ {
		candidates.MustAppendRow([]schema.Value{0, 0})
	}
	for i := 0; i < 4; i++ {
		candidates.MustAppendRow([]schema.Value{3, 3})
	}
	q := query.MustNewQuery(s, query.Pred{Attr: 1, R: query.Range{Lo: 3, Hi: 3}})
	return s, hist, candidates, q
}

func TestRankByCheapEvidenceOrdersLikelyFirst(t *testing.T) {
	_, hist, candidates, q := existsWorld(t)
	d := stats.NewEmpirical(hist)
	order, evidenceCost := RankByCheapEvidence(d, q, candidates, 1)
	if len(order) != candidates.NumRows() {
		t.Fatalf("order has %d entries", len(order))
	}
	// Cheap evidence cost: one beacon per candidate.
	if evidenceCost != float64(candidates.NumRows()) {
		t.Errorf("evidence cost = %g, want %d", evidenceCost, candidates.NumRows())
	}
	// The four beacon=3 candidates (rows 36..39) must rank first.
	for i := 0; i < 4; i++ {
		if order[i] < 36 {
			t.Fatalf("order[%d] = %d; beacon=3 rows not ranked first: %v", i, order[i], order[:6])
		}
	}
}

func TestOrderedExistsBeatsNaturalOrder(t *testing.T) {
	s, hist, candidates, q := existsWorld(t)
	d := stats.NewEmpirical(hist)
	p := plan.NewSeq(q.Preds)

	exists := Options{Exists: true, SkipVerify: true}
	naturalCost := execute(t, s, p, query.Query{}, candidates, exists).TotalCost
	order, evidenceCost := RankByCheapEvidence(d, q, candidates, 1)
	exists.Order = order
	res := execute(t, s, p, query.Query{}, candidates, exists)
	if !res.Found || res.FoundRow < 36 {
		t.Fatalf("ordered exists found=%v row=%d", res.Found, res.FoundRow)
	}
	// Natural order probes 37 tuples at 100 each; ordered probes 1 plus
	// 40 cheap beacons.
	if res.TotalCost+evidenceCost >= naturalCost {
		t.Errorf("ordered total %g not below natural %g", res.TotalCost+evidenceCost, naturalCost)
	}
}

func TestRunExistsOrderedNoMatch(t *testing.T) {
	s, _, candidates, _ := existsWorld(t)
	never := plan.NewLeaf(false)
	order := make([]int, candidates.NumRows())
	for i := range order {
		order[i] = candidates.NumRows() - 1 - i // reverse order
	}
	res := execute(t, s, never, query.Query{}, candidates, Options{Exists: true, SkipVerify: true, Order: order})
	if res.Found || res.FoundRow != -1 || res.TotalCost != 0 {
		t.Errorf("found=%v idx=%d cost=%g", res.Found, res.FoundRow, res.TotalCost)
	}
}
