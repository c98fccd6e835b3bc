package plan

import (
	"acqp/internal/floats"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
)

// ExpectedCost evaluates Equation (3) of the paper: the expected
// acquisition cost of the plan under the conditioning context c, which
// must already be restricted to the given box (the evidence t gathered so
// far). For the cost of a complete plan, pass the distribution's root
// context and the full box.
func ExpectedCost(n *Node, s *schema.Schema, c stats.Cond, box query.Box) float64 {
	switch n.Kind {
	case Leaf:
		return 0
	case Split:
		var atomic float64
		if !box.Observed(n.Attr, s.K(n.Attr)) {
			atomic = s.AcquisitionCostWith(n.Attr, func(i int) bool {
				return box.Observed(i, s.K(i))
			})
		}
		r := box[n.Attr]
		// P(X >= x | evidence); clamp the split into the current range so
		// degenerate splits cost through the single reachable branch.
		var pRight float64
		switch {
		case n.X <= r.Lo:
			pRight = 1
		case int(n.X) > int(r.Hi):
			pRight = 0
		default:
			pRight = c.ProbRange(n.Attr, query.Range{Lo: n.X, Hi: r.Hi})
		}
		cost := atomic
		if pLeft := 1 - pRight; pLeft > 0 {
			lr := query.Range{Lo: r.Lo, Hi: n.X - 1}
			cost += pLeft * ExpectedCost(n.Left, s, c.RestrictRange(n.Attr, lr), box.With(n.Attr, lr))
		}
		if pRight > 0 {
			rr := query.Range{Lo: maxVal(n.X, r.Lo), Hi: r.Hi}
			cost += pRight * ExpectedCost(n.Right, s, c.RestrictRange(n.Attr, rr), box.With(n.Attr, rr))
		}
		return cost
	case Seq:
		return ExpectedSeqCost(n.Preds, s, stats.NewCondChain(c), box)
	default:
		panic("plan: invalid node kind")
	}
}

// PredChain is the statistics a sequence of predicates is costed from:
// the probability of a predicate given the evidence and every predicate
// assumed so far. stats.CondChain answers from any conditioning context;
// stats.SweepSide answers the same from a split sweep's counts, which is
// how the greedy planner costs a candidate split's children without
// deriving their contexts.
type PredChain interface {
	// ProbPred returns P(p satisfied | evidence, every assumed predicate).
	ProbPred(p query.Pred) float64
	// AssumeTrue conditions everything asked afterwards on p holding.
	AssumeTrue(p query.Pred)
}

// ExpectedSeqCost computes the expected cost of evaluating the predicates
// in order, stopping at the first failure — the sequential-plan case of
// Equation (3). pc must stand at the evidence of the box with nothing
// assumed; it is left wherever the sequence stopped. Attributes already
// observed on the path (restricted in the box) or by an earlier predicate
// of the same sequence cost nothing to re-test.
func ExpectedSeqCost(preds []query.Pred, s *schema.Schema, pc PredChain, box query.Box) float64 {
	var buf [4]uint64
	acquired := s.NewAttrSet(buf[:])
	isAcq := func(i int) bool { return acquired.Has(i) || box.Observed(i, s.K(i)) }
	total := 0.0
	reach := 1.0 // probability execution reaches the current predicate
	for i, p := range preds {
		if !isAcq(p.Attr) {
			total += reach * s.AcquisitionCostWith(p.Attr, isAcq)
		}
		acquired.Add(p.Attr)
		pSat := pc.ProbPred(p)
		reach *= pSat
		if floats.Zero(reach) || i == len(preds)-1 {
			// The remaining predicates, if any, are unreachable (or carry
			// negligible probability mass); their cost contributes
			// nothing.
			break
		}
		pc.AssumeTrue(p)
	}
	return total
}

// ExpectedCostRoot is ExpectedCost evaluated from an unconditioned
// distribution: C(P, {}) in the paper's notation.
func ExpectedCostRoot(n *Node, d stats.Dist) float64 {
	s := d.Schema()
	return ExpectedCost(n, s, d.Root(), query.FullBox(s))
}

func maxVal(a, b schema.Value) schema.Value {
	if a > b {
		return a
	}
	return b
}
