// Package stats implements the probability machinery of Section 5 of the
// paper: estimating the conditional probabilities
//
//	P(T_j | t)  and  P(X_i in [a, x-1] | R_1, ..., R_n)
//
// that the planning algorithms consume, from a historical dataset of
// samples (and, via internal/model, from compact distribution models).
//
// The core abstraction is a conditioning context (Cond): a distribution
// restricted by evidence accumulated along one branch of a plan. The
// empirical implementation conditions by partitioning selection vectors,
// which is exactly the incremental index scheme of Section 5.1 — every
// conditional probability is an O(1) ratio of counts after an
// O(rows-in-context) partition, and per-attribute histograms with prefix
// sums realize the incremental range rule of Equation (7).
package stats

import (
	"sync"

	"acqp/internal/floats"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// Dist is a joint distribution over the attributes of a schema from which
// conditioning contexts are created. Implementations: Empirical (this
// package, backed by a table) and the graphical models in internal/model.
type Dist interface {
	// Schema returns the schema the distribution is defined over.
	Schema() *schema.Schema
	// Root returns the unconditioned context.
	Root() Cond
}

// Cond is a distribution conditioned on the evidence gathered so far along
// one plan branch. All probabilities are conditional on that evidence.
//
// Conds are safe for concurrent use: lazily computed histograms and prefix
// sums are published through sync.Once and immutable afterwards, so one
// Cond (and any chain of contexts derived from it) can back many search
// goroutines without copies. Restrict methods only read the parent and
// return a fresh child context.
type Cond interface {
	// Weight is the effective number of tuples consistent with the
	// evidence (a count for empirical distributions, an expected count
	// for models). Zero weight means the context is unsupported and
	// probabilities fall back to uninformative defaults.
	Weight() float64

	// Hist returns the normalized histogram P(X_attr = v | evidence) for
	// v in [0, K_attr). The returned slice must not be mutated.
	Hist(attr int) []float64

	// ProbRange returns P(X_attr in r | evidence).
	ProbRange(attr int, r query.Range) float64

	// ProbPred returns P(pred satisfied | evidence).
	ProbPred(p query.Pred) float64

	// RestrictRange returns a child context further conditioned on
	// X_attr in r.
	RestrictRange(attr int, r query.Range) Cond

	// RestrictPred returns a child context further conditioned on the
	// predicate having truth value val. Unlike RestrictRange this
	// supports negated predicates, whose satisfying set is not a single
	// range.
	RestrictPred(p query.Pred, val bool) Cond
}

// Empirical is a Dist backed directly by a historical table, the
// "estimate from counts from a dataset D of d tuples" scheme of
// Sections 2.3 and 5.
type Empirical struct {
	tbl      *table.Table
	rootOnce sync.Once
	root     *empCond
}

// NewEmpirical wraps a table as a distribution. The table must outlive the
// distribution and must not be mutated while in use.
func NewEmpirical(tbl *table.Table) *Empirical {
	return &Empirical{tbl: tbl}
}

// Schema implements Dist.
func (e *Empirical) Schema() *schema.Schema { return e.tbl.Schema() }

// NumTuples returns d, the number of historical samples.
func (e *Empirical) NumTuples() int { return e.tbl.NumRows() }

// Root implements Dist: the context over all d tuples. It is built once
// and shared by every caller — a Cond is immutable once published — so a
// planner, its cost evaluation and its baselines all read one identity
// selection vector and one set of root histograms.
func (e *Empirical) Root() Cond {
	e.rootOnce.Do(func() {
		rows := make([]int32, e.tbl.NumRows())
		for i := range rows {
			rows[i] = int32(i)
		}
		e.root = newEmpCond(e.tbl, rows)
	})
	return e.root
}

func newEmpCond(tbl *table.Table, rows []int32) *empCond {
	return &empCond{tbl: tbl, rows: rows, attrs: make([]attrStat, tbl.Schema().NumAttrs())}
}

// attrStat is one attribute's lazily published statistics: the normalized
// histogram and its prefix sums. once guards a single computation of both;
// after Do returns they are immutable, so any number of goroutines can
// share the slices without further synchronization.
type attrStat struct {
	once   sync.Once
	hist   []float64
	prefix []float64 // prefix[v] = P(X < v): the incremental rule of Eq. (7)
}

// empCond is a selection-vector conditioning context.
type empCond struct {
	tbl   *table.Table
	rows  []int32
	attrs []attrStat
}

func (c *empCond) Weight() float64 { return float64(len(c.rows)) }

// stat computes (once) and returns the attribute's histogram and prefix
// sums. This is the safe-publication point for the lazy caches.
func (c *empCond) stat(attr int) *attrStat {
	st := &c.attrs[attr]
	st.once.Do(func() {
		k := c.tbl.Schema().K(attr)
		h := make([]float64, k)
		col := c.tbl.Col(attr)
		for _, r := range c.rows {
			h[col[r]]++
		}
		if n := float64(len(c.rows)); n > 0 {
			for i := range h {
				h[i] /= n
			}
		} else {
			// Unsupported context: fall back to a uniform histogram so the
			// planners get finite, uninformative probabilities instead of
			// NaN (the high-variance regime Section 7 warns about).
			for i := range h {
				h[i] = 1 / float64(k)
			}
		}
		p := make([]float64, len(h)+1)
		for v, hv := range h {
			p[v+1] = p[v] + hv
		}
		st.hist, st.prefix = h, p
	})
	return st
}

func (c *empCond) Hist(attr int) []float64 { return c.stat(attr).hist }

// prefix returns cumulative sums of the attribute's histogram. Range
// probabilities follow in O(1): P(X in [lo,hi]) = prefix[hi+1] - prefix[lo].
func (c *empCond) prefix(attr int) []float64 { return c.stat(attr).prefix }

func (c *empCond) ProbRange(attr int, r query.Range) float64 {
	p := c.prefix(attr)
	hi := int(r.Hi) + 1
	if hi >= len(p) {
		hi = len(p) - 1
	}
	lo := int(r.Lo)
	if lo >= hi {
		return 0
	}
	return clampProb(p[hi] - p[lo])
}

func (c *empCond) ProbPred(p query.Pred) float64 {
	in := c.ProbRange(p.Attr, p.R)
	if p.Negated {
		return clampProb(1 - in)
	}
	return in
}

func (c *empCond) RestrictRange(attr int, r query.Range) Cond {
	col := c.tbl.Col(attr)
	sub := make([]int32, 0, len(c.rows)/2)
	for _, row := range c.rows {
		if r.Contains(col[row]) {
			sub = append(sub, row)
		}
	}
	return newEmpCond(c.tbl, sub)
}

func (c *empCond) RestrictPred(p query.Pred, val bool) Cond {
	col := c.tbl.Col(p.Attr)
	sub := make([]int32, 0, len(c.rows)/2)
	for _, row := range c.rows {
		if p.Eval(col[row]) == val {
			sub = append(sub, row)
		}
	}
	return newEmpCond(c.tbl, sub)
}

// clampProb keeps accumulated floating-point sums inside [0, 1].
func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// RestrictBox conditions a context on every non-full range of a box in one
// step. It is a convenience for planners that re-enter a memoized
// subproblem from a fresh root.
func RestrictBox(c Cond, s *schema.Schema, b query.Box) Cond {
	for i, r := range b {
		if !r.IsFull(s.K(i)) {
			c = c.RestrictRange(i, r)
		}
	}
	return c
}

// Selectivity returns the a-priori (marginal) probability that the
// predicate is satisfied, as the Naive planner of Section 4.1.1 uses it.
func Selectivity(d Dist, p query.Pred) float64 {
	return d.Root().ProbPred(p)
}

// QueryTruthProb returns P(phi(x) = true) under the distribution, the
// overall selectivity of the conjunctive query.
func QueryTruthProb(d Dist, q query.Query) float64 {
	c := d.Root()
	p := 1.0
	for _, pred := range q.Preds {
		pi := c.ProbPred(pred)
		p *= pi
		if floats.Zero(p) {
			return 0
		}
		c = c.RestrictPred(pred, true)
	}
	return p
}
