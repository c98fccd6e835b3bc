package opt

import (
	"container/heap"
	"context"
	"math"
	"sync"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

// Greedy is the heuristic conditional planner of Section 4.2: it starts
// from a sequential plan for the whole problem and greedily introduces the
// locally-optimal binary splits of Figure 6, expanding leaves in
// priority-queue order (Figure 7) until MaxSplits conditioning branches
// have been added or no split improves on the sequential plan.
type Greedy struct {
	// SPSF restricts candidate conditioning points. Required.
	SPSF SPSF
	// MaxSplits bounds the number of conditioning splits (the k in the
	// paper's Heuristic-k). Zero yields a pure sequential plan.
	MaxSplits int
	// Base selects the sequential planner used for leaf plans: SeqOpt
	// for small queries, SeqGreedy for large ones (Section 6,
	// "Algorithms Compared"). SeqNaive is allowed for ablations.
	Base SeqAlgorithm
	// Alpha, when positive, switches from the size-bounded formulation
	// to the joint objective of Section 2.4:
	//
	//	argmin_P C(P) + alpha * zeta(P)
	//
	// where zeta(P) is the plan's wire size in bytes and alpha is
	// (cost to transmit a byte) / (tuples processed in the query
	// lifetime). Each leaf expansion is charged alpha times the bytes it
	// adds, so splits are only taken while their expected acquisition
	// saving exceeds their amortized dissemination cost. MaxSplits still
	// applies as a hard cap (set it large to let alpha alone decide).
	Alpha float64
	// Parallelism bounds the goroutines evaluating attributes' candidate
	// splits and frontier leaves concurrently; values <= 1 plan
	// sequentially. Plans and search counters are identical at every
	// Parallelism (ties are broken by the fixed candidate order, not
	// evaluation timing).
	Parallelism int
}

// greedySplitResult is the outcome of GreedySplit at one leaf.
type greedySplitResult struct {
	ok             bool
	cost           float64 // C-bar: expected cost of split + sequential subplans
	attr           int
	x              schema.Value
	loPlan, hiPlan *plan.Node
	loCost, hiCost float64
	pLo            float64
}

// sideEval is one child of a candidate split: the verdict of its box on
// the query and, when that is Unknown, its sequential plan — the order as
// a span of the attribute's arena — with its expected cost. A child the
// training data never reaches is not planned and costs nothing.
type sideEval struct {
	planned  bool
	verdict  query.Truth
	from, to int
	cost     float64
}

// candEval is one evaluated candidate split point. full is false when the
// candidate was abandoned after its low side because its partial cost
// already reached the best cost known.
type candEval struct {
	pLo    float64
	lo, hi sideEval
	full   bool
}

// attrEval is every candidate of one attribute at one leaf. cands is nil
// when the attribute was not evaluated: no candidates in range, the search
// cancelled, or its acquisition cost alone reached the best cost known.
type attrEval struct {
	atomic float64 // C'_attr at the leaf
	xs     []schema.Value
	cands  []candEval
	orders []query.Pred // arena of the children's predicate orders
}

// attrWork is the scratch of evaluating one attribute's candidates.
type attrWork struct {
	seq   seqWork
	sweep stats.SweepBuf
	child query.Box
}

// greedySearch is one run of Greedy.Plan: the query, the candidate split
// points and the goroutine gate every leaf analysis shares.
type greedySearch struct {
	g    *Greedy
	s    *schema.Schema
	q    query.Query
	spsf SPSF // g.SPSF plus the query's own endpoints
	sem  *gate
	// work is the one scratch of a search that evaluates attributes
	// inline; with a gate every evaluation brings its own.
	work *attrWork
}

func (g *Greedy) search(s *schema.Schema, q query.Query, span *trace.Span) *greedySearch {
	gs := &greedySearch{g: g, s: s, q: q, spsf: g.SPSF.WithQueryEndpoints(s, q), sem: newGate(g.Parallelism, span)}
	if gs.sem == nil {
		gs.work = new(attrWork)
	}
	return gs
}

// greedySplit implements GreedySplit(phi, R_1..R_n) from Figure 6: the
// locally optimal split point, assuming the optimal (or greedy)
// sequential plan is used for each resulting subproblem.
//
// Candidates are evaluated one attribute at a time (evalAttr), through a
// split sweep when the context is empirical, and then reduced in the
// fixed (attr, x) order. The reduction replays the sequential search —
// skip an attribute whose acquisition cost cannot beat the best so far,
// abandon a candidate whose low side already cannot, keep the first
// candidate achieving the minimum — so the split chosen and the
// Candidates/Pruned counters are the same at every Parallelism. With a
// gate the attributes are evaluated concurrently; each prunes only
// against costs of attributes before it (prefixBounds), which the replay
// is guaranteed to prune against too.
func (gs *greedySearch) greedySplit(ctx context.Context, c stats.Cond, box query.Box) greedySplitResult {
	// A sweep keeps one table cell per satisfaction pattern of the open
	// predicates that occurs at the leaf. Up to optSeqMaxPreds predicates
	// those are few next to the leaf's rows; past it (where OptSeq has
	// already given way to GreedySeq) they approach one per row and the
	// children are cheaper to derive.
	var sweep *stats.SplitSweep
	if open := openPreds(gs.q, box); len(open) <= optSeqMaxPreds {
		sweep = stats.NewSplitSweep(c, open)
	}
	bounds := newPrefixBounds(gs.s.NumAttrs())
	evals := make([]attrEval, gs.s.NumAttrs())
	var wg sync.WaitGroup
	for attr := range evals {
		gs.sem.run(&wg, func() {
			evals[attr] = gs.evalAttr(ctx, c, sweep, box, attr, bounds)
		})
	}
	wg.Wait()

	sp := trace.FromContext(ctx)
	res := greedySplitResult{cost: math.Inf(1)}
	var best *attrEval
	var bestCand *candEval
	for attr := range evals {
		ev := &evals[attr]
		if ev.cands == nil || ev.atomic >= res.cost {
			continue
		}
		for i := range ev.cands {
			cand := &ev.cands[i]
			sp.Count(trace.Candidates, 1)
			cost := ev.atomic
			if cand.pLo > 0 {
				cost += cand.pLo * cand.lo.cost
				if cost >= res.cost {
					sp.Count(trace.Pruned, 1)
					continue
				}
			}
			if !cand.full {
				panic("opt: greedySplit: the replay needs a candidate its evaluation abandoned")
			}
			if pHi := 1 - cand.pLo; pHi > 0 {
				cost += pHi * cand.hi.cost
			}
			if cost < res.cost {
				res = greedySplitResult{
					ok: true, cost: cost, attr: attr, x: ev.xs[i],
					loCost: cand.lo.cost, hiCost: cand.hi.cost, pLo: cand.pLo,
				}
				best, bestCand = ev, cand
			}
		}
	}
	if res.ok {
		r := box[res.attr]
		res.loPlan = best.node(bestCand.lo, gs.q, box.With(res.attr, query.Range{Lo: r.Lo, Hi: res.x - 1}))
		res.hiPlan = best.node(bestCand.hi, gs.q, box.With(res.attr, query.Range{Lo: res.x, Hi: r.Hi}))
	}
	return res
}

// node builds the plan of one child of the winning candidate.
func (ev *attrEval) node(sd sideEval, q query.Query, box query.Box) *plan.Node {
	if !sd.planned {
		return fallbackNode(q, box)
	}
	return seqNode(sd.verdict, ev.orders[sd.from:sd.to])
}

// evalAttr evaluates the candidate split points of one attribute at a
// leaf: for each, the probability of its low side and the sequential plan
// and cost of both children. With a sweep the children's statistics are
// its running counts; without one (model backends, weighted cells) each
// child context is derived from c. A candidate is abandoned after its low
// side, and the attribute skipped outright, once the cost so far reaches
// a bound that is never below the best cost the replay in greedySplit
// will hold at that point: the costs published by earlier attributes and
// by this attribute's earlier candidates.
func (gs *greedySearch) evalAttr(ctx context.Context, c stats.Cond, sweep *stats.SplitSweep, box query.Box, attr int, bounds prefixBounds) attrEval {
	r := box[attr]
	xs := gs.spsf.Candidates(attr, r)
	ev := attrEval{atomic: predCost(gs.s, box, attr), xs: xs}
	bound := bounds.before(attr)
	if len(xs) == 0 || ctx.Err() != nil || ev.atomic >= bound {
		// Cancelled mid-enumeration: greedySplit reports the best split of
		// the attributes evaluated so far (possibly none). The caller's
		// plan stays valid either way because leaves are always complete
		// sequential plans.
		return ev
	}
	ev.cands = make([]candEval, len(xs))
	ev.orders = make([]query.Pred, 0, 2*len(xs)*len(gs.q.Preds))
	w := gs.work
	if w == nil {
		w = new(attrWork)
	}
	// The children's boxes differ from box in child[attr] only.
	w.child = append(w.child[:0], box...)
	// side plans one child from src, or from its derived context if nil.
	side := func(src predSource, cr query.Range) sideEval {
		w.child[attr] = cr
		if src == nil {
			src = stats.NewCondChain(childCond(c, attr, cr))
		}
		verdict, order, cost := w.seq.plan(gs.g.Base, gs.s, src, w.child, gs.q)
		from := len(ev.orders)
		ev.orders = append(ev.orders, order...)
		return sideEval{planned: true, verdict: verdict, from: from, to: len(ev.orders), cost: cost}
	}
	visit := func(i int, lo, hi predSource) {
		if ev.cands == nil {
			return
		}
		before := bounds.before(attr)
		if ev.atomic >= before {
			ev.cands = nil // an earlier attribute got there meanwhile: skipped after all
			return
		}
		bound = min(bound, before)
		x, cand := xs[i], &ev.cands[i]
		loRange := query.Range{Lo: r.Lo, Hi: x - 1}
		cand.pLo = c.ProbRange(attr, loRange)
		cost := ev.atomic
		if cand.pLo > 0 {
			cand.lo = side(lo, loRange)
			cost += cand.pLo * cand.lo.cost
			if cost >= bound {
				return
			}
		}
		if pHi := 1 - cand.pLo; pHi > 0 {
			cand.hi = side(hi, query.Range{Lo: x, Hi: r.Hi})
			cost += pHi * cand.hi.cost
		}
		cand.full = true
		if cost < bound {
			bound = cost
			bounds.publish(attr, cost)
		}
	}
	if sweep != nil {
		sweep.Attr(attr, xs, &w.sweep, func(i int, lo, hi *stats.SweepSide) { visit(i, lo, hi) })
	} else {
		for i := 0; i < len(xs) && ev.cands != nil; i++ {
			visit(i, nil, nil)
		}
	}
	return ev
}

// leafEntry is a priority-queue entry: a leaf of the current plan together
// with its pre-computed greedy split and the expected gain of applying it.
type leafEntry struct {
	node     *plan.Node // the Seq (or Leaf) node to expand in place
	c        stats.Cond
	box      query.Box
	reach    float64 // P(R_1, ..., R_n): probability the plan reaches this leaf
	seqCost  float64 // C(P-hat): cost of the leaf's sequential plan
	split    greedySplitResult
	priority float64 // reach * (seqCost - split.cost)
	index    int
}

type leafQueue []*leafEntry

func (q leafQueue) Len() int            { return len(q) }
func (q leafQueue) Less(i, j int) bool  { return q[i].priority > q[j].priority }
func (q leafQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *leafQueue) Push(x interface{}) { e := x.(*leafEntry); e.index = len(*q); *q = append(*q, e) }
func (q *leafQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Plan runs the greedy conditional planning algorithm (Figure 7) and
// returns the plan and its expected cost under the distribution.
//
// Greedy planning is an anytime algorithm: the plan starts as a complete
// sequential plan and every leaf expansion keeps it complete, so when ctx
// is cancelled or its deadline expires the search simply stops expanding
// and returns the best (possibly purely sequential) plan found so far.
// Callers can distinguish a truncated run by checking ctx.Err.
//
// With Parallelism > 1 the two frontier leaves created by each expansion
// are analyzed concurrently, and each analysis evaluates its attributes'
// candidate splits concurrently, all on one bounded goroutine pool. The
// expansion loop itself stays sequential — heap order, not evaluation
// timing, decides which leaf is expanded next — so the resulting plan is
// identical at every Parallelism.
func (g *Greedy) Plan(ctx context.Context, d stats.Dist, q query.Query) (*plan.Node, float64) {
	s := d.Schema()
	tsp := trace.FromContext(ctx)
	gs := g.search(s, q, tsp)
	rootBox := query.FullBox(s)
	rootCond := d.Root()

	seedRef := tsp.Begin("greedy-seed")
	root, rootCost := SequentialPlan(g.Base, s, rootCond, rootBox, q)

	pq := &leafQueue{}
	if e := gs.splitEntry(ctx, root, rootCond, rootBox, 1, rootCost); e != nil {
		heap.Push(pq, e)
	}
	tsp.End(seedRef)

	expandRef := tsp.Begin("greedy-expand")
	splits := 0
	for splits < g.MaxSplits && pq.Len() > 0 && ctx.Err() == nil {
		top := heap.Pop(pq).(*leafEntry)
		if top.priority <= 0 {
			break // no remaining split improves on its sequential plan
		}
		sp := top.split
		// Expand the leaf in place into a conditioning split whose
		// children start as the split's sequential plans.
		*top.node = *plan.NewSplit(sp.attr, sp.x, sp.loPlan, sp.hiPlan)
		splits++
		tsp.Count(trace.LeafExpansions, 1)
		if splits >= g.MaxSplits {
			break
		}
		loRange := query.Range{Lo: top.box[sp.attr].Lo, Hi: sp.x - 1}
		hiRange := query.Range{Lo: sp.x, Hi: top.box[sp.attr].Hi}
		// The two new frontier leaves are independent subproblems;
		// analyze them concurrently, then push lo before hi so the heap's
		// tie order is fixed. Only now, for the split that was kept, are
		// the children's contexts derived.
		var entries [2]*leafEntry
		var wg sync.WaitGroup
		if sp.pLo > 0 {
			gs.sem.run(&wg, func() {
				entries[0] = gs.splitEntry(ctx, top.node.Left, childCond(top.c, sp.attr, loRange),
					top.box.With(sp.attr, loRange), top.reach*sp.pLo, sp.loCost)
			})
		}
		if pHi := 1 - sp.pLo; pHi > 0 {
			gs.sem.run(&wg, func() {
				entries[1] = gs.splitEntry(ctx, top.node.Right, childCond(top.c, sp.attr, hiRange),
					top.box.With(sp.attr, hiRange), top.reach*pHi, sp.hiCost)
			})
		}
		wg.Wait()
		for _, e := range entries {
			if e != nil {
				heap.Push(pq, e)
			}
		}
	}
	tsp.End(expandRef)
	// Canonicalize: drop structure that cannot affect any tuple (decided
	// splits, proven predicates, identical branches) so the disseminated
	// zeta(P) is minimal.
	simplifyRef := tsp.Begin("greedy-simplify")
	root = plan.Simplify(root, s)
	cost := plan.ExpectedCostRoot(root, d)
	tsp.End(simplifyRef)
	return root, cost
}

// splitEntry computes the greedy split for a leaf and builds its queue
// entry with priority P(reach) * (C(seq) - C(split)), the expected gain of
// expanding it (Section 4.2.2). It returns nil when no split applies.
func (gs *greedySearch) splitEntry(ctx context.Context, node *plan.Node, c stats.Cond, box query.Box, reach, seqCost float64) *leafEntry {
	if node.Kind == plan.Leaf {
		return nil // already decided; nothing to split
	}
	sp := gs.greedySplit(ctx, c, box)
	if !sp.ok {
		return nil
	}
	priority := reach * (seqCost - sp.cost)
	if gs.g.Alpha > 0 {
		// Joint objective (Section 2.4): charge the split for the extra
		// plan bytes it would disseminate.
		deltaBytes := plan.Size(plan.NewSplit(sp.attr, sp.x, sp.loPlan, sp.hiPlan)) - plan.Size(node)
		priority -= gs.g.Alpha * float64(deltaBytes)
	}
	return &leafEntry{
		node: node, c: c, box: box, reach: reach,
		seqCost: seqCost, split: sp,
		priority: priority,
	}
}
