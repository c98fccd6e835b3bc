package stats

import (
	"acqp/internal/floats"
	"acqp/internal/query"
)

// MaxJointPreds is the largest predicate count PredMaskJoint can
// represent: the joint is dense over 2^m satisfaction patterns, so m is
// capped well below the 2^32 slice-length wall. Planning entry points
// reject longer queries up front.
const MaxJointPreds = 30

// PredMaskJoint returns the joint distribution over the rediscretized
// query-predicate bits of Section 4.1.2: out[mask] is the probability,
// under the context, that exactly the predicates whose bit is set in mask
// are satisfied. Bit i of mask corresponds to q.Preds[i]. The slice has
// length 2^m for m = q.NumPreds().
//
// For empirical contexts this is a single pass over the context's rows
// (the "normalized joint histogram over the rediscretized attributes
// X'_1..X'_m" of Section 5.2). Other Cond implementations fall back to
// recursive conditioning, which costs O(2^m) Restrict calls and is only
// used for small m.
//
// Queries with more than MaxJointPreds predicates cannot be represented
// (the mask is 2^m cells) and panic; API layers validate q.NumPreds()
// against MaxJointPreds before planning so user queries surface a typed
// invalid-request error instead.
func PredMaskJoint(c Cond, q query.Query) []float64 {
	m := q.NumPreds()
	if m > MaxJointPreds {
		panic("stats: PredMaskJoint: too many predicates")
	}
	if ec, ok := c.(*empCond); ok {
		return ec.predMaskJoint(q)
	}
	if wc, ok := c.(*wCond); ok {
		return wc.predMaskJoint(q)
	}
	out := make([]float64, 1<<uint(m))
	fillMaskJoint(c, q, 0, 0, 1, out)
	return out
}

func fillMaskJoint(c Cond, q query.Query, i int, mask uint32, p float64, out []float64) {
	if floats.Zero(p) {
		return
	}
	if i == q.NumPreds() {
		out[mask] += p
		return
	}
	pt := c.ProbPred(q.Preds[i])
	if pt > 0 {
		fillMaskJoint(c.RestrictPred(q.Preds[i], true), q, i+1, mask|1<<uint(i), p*pt, out)
	}
	if pt < 1 {
		fillMaskJoint(c.RestrictPred(q.Preds[i], false), q, i+1, mask, p*(1-pt), out)
	}
}

func (c *empCond) predMaskJoint(q query.Query) []float64 {
	m := q.NumPreds()
	out := make([]float64, 1<<uint(m))
	if len(c.rows) == 0 {
		// Unsupported context: uniform over patterns.
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return out
	}
	cols := make([][]uint16, m)
	for i, p := range q.Preds {
		cols[i] = c.tbl.Col(p.Attr)
	}
	for _, row := range c.rows {
		var mask uint32
		for i, p := range q.Preds {
			if p.Eval(cols[i][row]) {
				mask |= 1 << uint(i)
			}
		}
		out[mask]++
	}
	n := float64(len(c.rows))
	for i := range out {
		out[i] /= n
	}
	return out
}

func (c *wCond) predMaskJoint(q query.Query) []float64 {
	m := q.NumPreds()
	out := make([]float64, 1<<uint(m))
	if floats.Zero(c.weight) {
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return out
	}
	cols := make([][]uint16, m)
	for i, p := range q.Preds {
		cols[i] = c.w.cells.Col(p.Attr)
	}
	for _, row := range c.rows {
		var mask uint32
		for i, p := range q.Preds {
			if p.Eval(cols[i][row]) {
				mask |= 1 << uint(i)
			}
		}
		out[mask] += c.w.weights[row]
	}
	for i := range out {
		out[i] /= c.weight
	}
	return out
}

// SupersetSums transforms a mask joint in place so that out[S] becomes the
// probability that *at least* the predicates in S are satisfied,
// i.e. P(AND_{i in S} phi_i). This is the standard sum-over-supersets
// (zeta) transform, O(m * 2^m).
func SupersetSums(joint []float64, m int) {
	for bit := 0; bit < m; bit++ {
		step := 1 << uint(bit)
		for mask := range joint {
			if mask&step == 0 {
				joint[mask] += joint[mask|step]
			}
		}
	}
}

// CondSatProb returns P(phi_j | AND_{i in S} phi_i) from a superset-summed
// joint (the output of SupersetSums). S must not contain j.
func CondSatProb(satProb []float64, s uint32, j int) float64 {
	den := satProb[s]
	if den <= 0 {
		return 0.5 // unsupported conditioning set: uninformative
	}
	return clampProb(satProb[s|1<<uint(j)] / den)
}

// CondChain is a Cond read as the cursor sequential planning and
// Equation (3) use: probabilities of predicates given that the predicates
// assumed so far all hold. It is the one place a chain of
// RestrictPred(p, true) contexts is derived, for every Cond
// implementation; SweepSide is the same cursor over a split sweep's
// counts.
type CondChain struct {
	base, cur Cond
}

// NewCondChain starts a chain at the context c.
func NewCondChain(c Cond) *CondChain { return &CondChain{base: c, cur: c} }

// ProbPred returns P(p satisfied | evidence, every assumed predicate).
func (cc *CondChain) ProbPred(p query.Pred) float64 { return cc.cur.ProbPred(p) }

// AssumeTrue conditions everything asked afterwards on p being satisfied.
func (cc *CondChain) AssumeTrue(p query.Pred) { cc.cur = cc.cur.RestrictPred(p, true) }

// Reset drops every AssumeTrue, returning to the context the chain
// started at.
func (cc *CondChain) Reset() { cc.cur = cc.base }

// MaskJoint is PredMaskJoint over preds under the chain's current context.
func (cc *CondChain) MaskJoint(preds []query.Pred) []float64 {
	return PredMaskJoint(cc.cur, query.Query{Preds: preds})
}
