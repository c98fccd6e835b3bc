package exec

import (
	"sort"

	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// RankByCheapEvidence implements the existential-query idea of Section 7
// of the paper: "we can use conditional plans to significantly reduce the
// number of acquisitions made by determining which of the sensors are
// most likely to satisfy the predicates." For each candidate tuple it
// acquires only the cheap attributes (cost <= cheapThreshold), estimates
// P(phi | cheap evidence) under the distribution, and returns the row
// order sorted by descending likelihood together with the total cost of
// the cheap acquisitions.
//
// Executing with the order as Options.Order (and Options.Exists) makes
// the expensive probing visit the most promising candidates first.
func RankByCheapEvidence(d stats.Dist, q query.Query, tbl *table.Table, cheapThreshold float64) (order []int, evidenceCost float64) {
	s := d.Schema()
	cheap := s.CheapAttrs(cheapThreshold)
	type scored struct {
		row int
		p   float64
	}
	scores := make([]scored, tbl.NumRows())
	var row []schema.Value
	for r := 0; r < tbl.NumRows(); r++ {
		row = tbl.Row(r, row)
		c := d.Root()
		for _, a := range cheap {
			evidenceCost += s.Cost(a)
			v := row[a]
			c = c.RestrictRange(a, query.Range{Lo: v, Hi: v})
		}
		p := 1.0
		for _, pred := range q.Preds {
			p *= c.ProbPred(pred)
			if p == 0 {
				break
			}
			c = c.RestrictPred(pred, true)
		}
		scores[r] = scored{row: r, p: p}
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].p > scores[j].p })
	order = make([]int, len(scores))
	for i, sc := range scores {
		order[i] = sc.row
	}
	return order, evidenceCost
}
