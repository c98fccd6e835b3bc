package opt

import (
	"math"

	"acqp/internal/floats"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
)

// SeqAlgorithm selects which sequential planner builds base plans.
type SeqAlgorithm int

// Sequential planning algorithms.
const (
	// SeqNaive orders predicates by cost / P(fail) using marginal
	// selectivities only (Section 4.1.1) — the traditional optimizer
	// baseline that ignores correlations.
	SeqNaive SeqAlgorithm = iota
	// SeqGreedy is the 4-approximate greedy heuristic of Munagala et al.
	// that conditions each choice on the predicates already chosen
	// (Section 4.1.3).
	SeqGreedy
	// SeqOpt is the optimal sequential plan via dynamic programming over
	// predicate subsets, O(m * 2^m) (Section 4.1.2).
	SeqOpt
)

func (a SeqAlgorithm) String() string {
	switch a {
	case SeqNaive:
		return "Naive"
	case SeqGreedy:
		return "GreedySeq"
	case SeqOpt:
		return "OptSeq"
	default:
		return "unknown"
	}
}

// optSeqMaxPreds caps the subset DP: beyond this many open predicates,
// SeqOpt falls back to SeqGreedy, mirroring Section 6's use of OptSeq for
// the small lab queries and GreedySeq for the larger garden/synthetic
// queries. The greedy conditional planner stops sweeping candidate splits
// from counts at the same point, for the same reason: both keep state per
// subset of the open predicates.
const optSeqMaxPreds = 16

// openPreds returns the query predicates whose truth is not yet determined
// by the box. A query predicate that is False under the box makes the
// whole conjunction false; callers must check q.EvalBox first.
func openPreds(q query.Query, box query.Box) []query.Pred {
	return appendOpenPreds(make([]query.Pred, 0, len(q.Preds)), q, box)
}

// appendOpenPreds appends openPreds(q, box) to dst.
func appendOpenPreds(dst []query.Pred, q query.Query, box query.Box) []query.Pred {
	for _, p := range q.Preds {
		if p.EvalRange(box[p.Attr]) == query.Unknown {
			dst = append(dst, p)
		}
	}
	return dst
}

// predCost returns C'_i: the acquisition cost of the predicate's
// attribute, or 0 if the box shows it has already been acquired. With
// shared sensor boards (Section 7), the cost is conditional on the
// attributes acquired so far: a board already powered by an observed
// attribute is not charged again.
func predCost(s *schema.Schema, box query.Box, attr int) float64 {
	if box.Observed(attr, s.K(attr)) {
		return 0
	}
	return s.AcquisitionCostWith(attr, func(i int) bool {
		return box.Observed(i, s.K(i))
	})
}

// predSource is where sequential planning reads its probabilities: the
// chain Equation (3) is costed from, restartable, plus the joint over
// predicate satisfaction patterns that OptSeq's subset DP consumes. Two
// sources implement it: stats.CondChain over any conditioning context,
// and stats.SweepSide over the counts of a split sweep, with which the
// greedy planner ranks candidate splits of an empirical context without
// deriving their children. The orderings and the cost below are written
// once against it.
type predSource interface {
	plan.PredChain
	// Reset returns the chain to the evidence alone.
	Reset()
	// MaskJoint is stats.PredMaskJoint over preds under the evidence.
	MaskJoint(preds []query.Pred) []float64
}

// SequentialPlan computes a sequential plan for the open predicates of q
// under the given evidence (c restricted to box), using the requested
// algorithm. It returns the plan node and its expected cost given the
// evidence. If the box already determines the query, it returns the
// corresponding leaf with zero cost.
func SequentialPlan(alg SeqAlgorithm, s *schema.Schema, c stats.Cond, box query.Box, q query.Query) (*plan.Node, float64) {
	var w seqWork
	verdict, order, cost := w.plan(alg, s, stats.NewCondChain(c), box, q)
	return seqNode(verdict, order), cost
}

// seqNode builds the plan node for seqWork.plan's outcome.
func seqNode(verdict query.Truth, order []query.Pred) *plan.Node {
	switch verdict {
	case query.True:
		return plan.NewLeaf(true)
	case query.False:
		return plan.NewLeaf(false)
	}
	return plan.NewSeq(order)
}

// seqWork holds the buffers of sequential planning, so a search that
// plans hundreds of candidate children reuses one set. The zero value is
// ready; each plan call overwrites what the previous one returned.
type seqWork struct {
	open, order []query.Pred
	rank        []float64 // naiveOrder
	j           []float64 // optOrder: J(S)
	choice      []int8    // optOrder: argmin predicate for S
}

// plan is SequentialPlan against any predSource standing at the evidence
// of box. It returns the box's verdict on q and, when that is Unknown,
// the chosen order of the open predicates — valid until the next call —
// with its expected cost.
func (w *seqWork) plan(alg SeqAlgorithm, s *schema.Schema, src predSource, box query.Box, q query.Query) (query.Truth, []query.Pred, float64) {
	if verdict := q.EvalBox(box); verdict != query.Unknown {
		return verdict, nil, 0
	}
	w.open = appendOpenPreds(w.open[:0], q, box)
	switch alg {
	case SeqNaive:
		w.naiveOrder(s, src, box)
	case SeqGreedy:
		w.greedyOrder(s, src, box)
	case SeqOpt:
		if len(w.open) > optSeqMaxPreds {
			w.greedyOrder(s, src, box)
		} else {
			w.optOrder(s, src, box)
		}
	default:
		panic("opt: unknown sequential algorithm")
	}
	src.Reset()
	return query.Unknown, w.order, plan.ExpectedSeqCost(w.order, s, src, box)
}

// naiveOrder sorts w.open into w.order by rank = C'_i / P(phi_i fails),
// using marginal probabilities under the current evidence. This is the
// traditional System-R-style ordering of Section 4.1.1, which ignores
// correlations between predicates.
func (w *seqWork) naiveOrder(s *schema.Schema, src predSource, box query.Box) {
	w.order = append(w.order[:0], w.open...)
	w.rank = w.rank[:0]
	for _, p := range w.order {
		w.rank = append(w.rank, rank(predCost(s, box, p.Attr), 1-src.ProbPred(p)))
	}
	// Stable insertion sort: deterministic and tiny inputs.
	for i := 1; i < len(w.order); i++ {
		for j := i; j > 0 && w.rank[j] < w.rank[j-1]; j-- {
			w.rank[j], w.rank[j-1] = w.rank[j-1], w.rank[j]
			w.order[j], w.order[j-1] = w.order[j-1], w.order[j]
		}
	}
}

// rank computes C / pFail with the conventional boundary cases: a free
// predicate ranks first, a predicate that can never fail ranks last.
func rank(cost, pFail float64) float64 {
	if floats.Zero(cost) {
		return 0
	}
	if pFail <= 0 {
		return math.Inf(1)
	}
	return cost / pFail
}

// greedyOrder implements the greedy heuristic of Munagala et al.
// (Section 4.1.3): repeatedly choose the predicate minimizing
// C_j / (1 - p_j) where p_j is the probability the predicate is satisfied
// GIVEN that all previously chosen predicates are satisfied. It consumes
// w.open and leaves the order in w.order.
func (w *seqWork) greedyOrder(s *schema.Schema, src predSource, box query.Box) {
	remaining := w.open
	w.order = w.order[:0]
	var buf [4]uint64
	chosen := s.NewAttrSet(buf[:]) // attributes already in the order
	for len(remaining) > 0 {
		best, bestRank := 0, math.Inf(1)
		for i, p := range remaining {
			r := rank(seqPredCost(s, box, chosen, p.Attr), 1-src.ProbPred(p))
			if r < bestRank {
				best, bestRank = i, r
			}
		}
		pick := remaining[best]
		w.order = append(w.order, pick)
		chosen.Add(pick.Attr)
		remaining = append(remaining[:best], remaining[best+1:]...)
		if len(remaining) > 0 {
			src.AssumeTrue(pick)
		}
	}
}

// seqPredCost is predCost conditioned additionally on the attributes a
// sequential order has already acquired, so shared-board power-up costs
// (Section 7) are charged once per order, not once per predicate.
func seqPredCost(s *schema.Schema, box query.Box, chosen schema.AttrSet, attr int) float64 {
	if box.Observed(attr, s.K(attr)) || chosen.Has(attr) {
		return 0
	}
	if !s.HasBoards() {
		return s.Cost(attr)
	}
	return s.AcquisitionCostWith(attr, func(i int) bool {
		return box.Observed(i, s.K(i)) || chosen.Has(i)
	})
}

// optOrder computes the optimal sequential order of w.open by dynamic
// programming over subsets of satisfied predicates (Section 4.1.2): the
// problem is rediscretized to the binary attributes X'_i = [phi_i
// satisfied], and
//
//	J(S) = min_{j not in S} C'_j + P(phi_j | all of S) * J(S + j)
//
// with J(full) = 0. Probabilities come from the joint distribution over
// the rediscretized attributes (Section 5.2), computed in one pass.
func (w *seqWork) optOrder(s *schema.Schema, src predSource, box query.Box) {
	open := w.open
	m := len(open)
	satProb := src.MaskJoint(open) // becomes P(AND_{i in S}) below
	stats.SupersetSums(satProb, m)

	full := uint32(1)<<uint(m) - 1
	w.j = append(w.j[:0], make([]float64, full+1)...)
	w.choice = append(w.choice[:0], make([]int8, full+1)...)
	j, choice := w.j, w.choice
	hasBoards := s.HasBoards()
	// Iterate S from full-1 down to 0; S+j is always numerically larger.
	for sMask := int64(full) - 1; sMask >= 0; sMask-- {
		S := uint32(sMask)
		best, bestCost := -1, math.Inf(1)
		for i := 0; i < m; i++ {
			if S&(1<<uint(i)) != 0 {
				continue
			}
			// C'_i conditional on the subset already evaluated: with
			// shared boards (Section 7), predicates whose attributes sit
			// on a board powered by a predicate in S are cheaper.
			acq := predCost(s, box, open[i].Attr)
			if hasBoards {
				acq = subsetPredCost(s, box, open, S, i)
			}
			pSat := stats.CondSatProb(satProb, S, i)
			cost := acq + pSat*j[S|1<<uint(i)]
			if cost < bestCost {
				best, bestCost = i, cost
			}
		}
		j[S], choice[S] = bestCost, int8(best)
	}

	w.order = w.order[:0]
	for S := uint32(0); S != full; {
		i := int(choice[S])
		w.order = append(w.order, open[i])
		S |= 1 << uint(i)
	}
}

// subsetPredCost returns the acquisition cost of open[i]'s attribute when
// the predicates in subset S have already been evaluated.
func subsetPredCost(s *schema.Schema, box query.Box, open []query.Pred, S uint32, i int) float64 {
	attr := open[i].Attr
	if box.Observed(attr, s.K(attr)) {
		return 0
	}
	return s.AcquisitionCostWith(attr, func(a int) bool {
		if box.Observed(a, s.K(a)) {
			return true
		}
		for j, p := range open {
			if p.Attr == a && S&(1<<uint(j)) != 0 {
				return true
			}
		}
		return false
	})
}
