package exec

import (
	"fmt"

	"acqp/internal/fault"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

// FallbackPolicy selects what the executor does with a tuple when an
// attribute acquisition ultimately fails (all retries exhausted, or the
// sensor is dead).
type FallbackPolicy int8

// Fallback policies.
const (
	// Abstain answers Unknown for the tuple. Never wrong, but every
	// abstained tuple is an unanswered one.
	Abstain FallbackPolicy = iota
	// Impute predicts the missing value from the attributes acquired so
	// far using a fitted joint model (typically the Chow–Liu tree from
	// internal/model) — the same correlations the planner exploits for
	// cost. The plan then proceeds as if the prediction were the reading.
	Impute
	// Replan drops the failed attribute and re-runs planning on the
	// residual query (the conjunction minus any predicate on that
	// attribute, which is optimistically treated as satisfied). Residual
	// plans are cached per failed-attribute set.
	Replan
)

func (p FallbackPolicy) String() string {
	switch p {
	case Abstain:
		return "abstain"
	case Impute:
		return "impute"
	case Replan:
		return "replan"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseFallbackPolicy parses the textual policy names used by flags and
// the serving API.
func ParseFallbackPolicy(s string) (FallbackPolicy, error) {
	switch s {
	case "abstain":
		return Abstain, nil
	case "impute":
		return Impute, nil
	case "replan":
		return Replan, nil
	default:
		return 0, fmt.Errorf("exec: unknown fallback policy %q (want abstain, impute, or replan)", s)
	}
}

// FaultConfig configures the fault-aware execution path.
type FaultConfig struct {
	// Injector decides per-attempt outcomes; nil injects nothing.
	Injector *fault.Injector
	// Retrier governs retries of transient/timeout failures and the cost
	// charged for them. The zero value never retries.
	Retrier fault.Retrier
	// Policy is the fallback applied when an acquisition ultimately fails.
	Policy FallbackPolicy
	// Model is the joint distribution used by the Impute policy (required
	// for it, ignored otherwise).
	Model stats.Dist
	// Replanner builds a plan for the residual query when the Replan
	// policy drops the failed attributes (marked true in failed). Nil
	// defaults to the correlation-unaware sequential plan over the
	// residual predicates, which is always correct and needs no planner.
	Replanner func(failed []bool, residual query.Query) (*plan.Node, error)
	// Profile, when non-nil, receives per-node and per-attribute cost
	// attribution for the run (see trace.ExecProfile). Charges made while
	// executing a replanned residual plan are attributed to node ID -1
	// (totals only), since residual nodes are not part of the profiled
	// plan. Nil disables attribution at zero cost.
	Profile *trace.ExecProfile
}

// TupleOutcome reports the fault-aware execution of one tuple.
type TupleOutcome struct {
	// Answer is the plan's three-valued output: Unknown iff the tuple was
	// abstained.
	Answer query.Truth
	// Cost is everything charged for the tuple, retries and backoff
	// included.
	Cost float64
	// RetryCost is the portion of Cost beyond fault-free execution: retry
	// sampling costs, backoff waits, and timeout surcharges.
	RetryCost float64
	// Retries counts retry attempts performed.
	Retries int
	// Failures counts attributes whose acquisition ultimately failed.
	Failures int
	// StaleReads counts acquisitions satisfied by a stuck previous value.
	StaleReads int
	// Imputed counts attribute values predicted by the model.
	Imputed int
	// Replanned reports whether a residual plan was used.
	Replanned bool
	// Touched reports whether a fault could have changed the answer: a
	// stale or imputed value differed from the true reading, or a replan
	// dropped an attribute carrying a query predicate. Wrong answers on
	// untouched tuples indicate a planner bug, not fault damage.
	Touched bool
}

// TupleExecutor executes a plan tuple-by-tuple under fault injection. It
// carries cross-tuple state — stale-value latches, learned-dead sensors,
// and the residual-plan cache — so callers that stream tuples (the
// sensornet motes) create one per logical node and feed it rows in order.
//
// The plan is compiled once, like the fault-free path's, and walked by
// instruction index; with an inactive (or nil) injector the traversal
// performs exactly the same sequence of cost additions as
// plan.Node.Execute, so results are byte-identical to the fault-free
// path.
type TupleExecutor struct {
	s   *schema.Schema
	pg  *program
	q   query.Query
	cfg FaultConfig

	// Cross-tuple state.
	stale     []schema.Value // last successfully latched reading
	haveStale []bool
	deadKnown []bool              // sensor observed dead; later tuples skip it at zero cost
	replans   map[string]*program // compiled residual plans by failed set
	acq       []int64             // per-attribute tuples-that-paid counts

	// Per-tuple scratch.
	paid    []bool // cost charged (board powered) this tuple
	known   []bool // value available this tuple (fresh, stale, or imputed)
	failed  []bool // acquisition ultimately failed this tuple
	imputed []bool
	vals    []schema.Value
}

// NewTupleExecutor validates the plan, query, and configuration and
// builds an executor for the plan.
func NewTupleExecutor(s *schema.Schema, p *plan.Node, q query.Query, cfg FaultConfig) (*TupleExecutor, error) {
	if err := validatePlan(s, p, q); err != nil {
		return nil, err
	}
	switch cfg.Policy {
	case Abstain, Replan:
	case Impute:
		if cfg.Model == nil {
			return nil, fmt.Errorf("%w: Impute policy requires a model distribution", ErrInvalidRequest)
		}
		if got := cfg.Model.Schema().NumAttrs(); got != s.NumAttrs() {
			return nil, fmt.Errorf("%w: impute model covers %d attributes, schema has %d", ErrInvalidRequest, got, s.NumAttrs())
		}
	default:
		return nil, fmt.Errorf("%w: unknown fallback policy %d", ErrInvalidRequest, cfg.Policy)
	}
	if cfg.Injector != nil && cfg.Injector.NumAttrs() != s.NumAttrs() {
		return nil, fmt.Errorf("%w: injector covers %d attributes, schema has %d", ErrInvalidRequest, cfg.Injector.NumAttrs(), s.NumAttrs())
	}
	n := s.NumAttrs()
	ex := &TupleExecutor{
		s: s, pg: compile(p), q: q, cfg: cfg,
		stale: make([]schema.Value, n), haveStale: make([]bool, n),
		deadKnown: make([]bool, n), acq: make([]int64, n),
		paid: make([]bool, n), known: make([]bool, n), failed: make([]bool, n),
		imputed: make([]bool, n), vals: make([]schema.Value, n),
	}
	return ex, nil
}

// AcquisitionCounts returns the live per-attribute counts of tuples that
// paid for the attribute so far (the fault-aware analogue of
// Result.Acquisitions).
func (e *TupleExecutor) AcquisitionCounts() []int64 { return e.acq }

// ExecTuple runs the plan on one tuple. rowIdx must be the tuple's global
// index (it seeds the injector's per-tuple randomness) and strictly
// increase across calls for the stale/dead state to make physical sense.
func (e *TupleExecutor) ExecTuple(rowIdx int, row []schema.Value) TupleOutcome {
	for i := range e.paid {
		e.paid[i] = false
		e.known[i] = false
		e.failed[i] = false
		e.imputed[i] = false
	}
	var out TupleOutcome
	out.Answer = e.execPlan(e.pg, rowIdx, row, &out, 0)
	for a, p := range e.paid {
		if p {
			e.acq[a]++
		}
	}
	return out
}

// execPlan walks one compiled plan by instruction index, consulting the
// fallback policy on acquisition failure. The instruction index is the
// profile node ID; a residual program's nodes are not in the profiled
// plan and are charged to node -1. depth bounds replan recursion.
func (e *TupleExecutor) execPlan(pg *program, rowIdx int, row []schema.Value, out *TupleOutcome, depth int) query.Truth {
	id := int32(0)
	for {
		op := &pg.ops[id]
		nodeID := -1
		if pg == e.pg {
			nodeID = int(id)
		}
		e.cfg.Profile.Visit(nodeID)
		switch op.kind {
		case plan.Leaf:
			if op.result {
				return query.True
			}
			return query.False
		case plan.Split:
			a := int(op.attr)
			if !e.ensure(rowIdx, a, row, out, nodeID) {
				return e.fallback(rowIdx, row, out, depth)
			}
			if e.vals[a] >= op.x {
				id = op.right
			} else {
				id = op.left
			}
		default: // plan.Seq
			for _, pd := range op.preds {
				if !e.ensure(rowIdx, pd.Attr, row, out, nodeID) {
					return e.fallback(rowIdx, row, out, depth)
				}
				if !pd.Eval(e.vals[pd.Attr]) {
					return query.False
				}
			}
			return query.True
		}
	}
}

// ensure makes attribute a's value available in e.vals[a], acquiring (and
// retrying) as needed. It returns false when the acquisition ultimately
// failed and no value could be substituted under the Abstain/Replan
// policies; under Impute it substitutes a prediction and returns true.
// nodeID attributes the charges to the plan node requesting the value.
func (e *TupleExecutor) ensure(rowIdx, a int, row []schema.Value, out *TupleOutcome, nodeID int) bool {
	if e.known[a] {
		return true
	}
	if e.failed[a] {
		return false
	}
	if e.deadKnown[a] {
		// Learned-dead sensors are not re-powered: fail at zero cost.
		return e.attrFailed(rowIdx, a, row, out)
	}
	inj, ret := e.cfg.Injector, e.cfg.Retrier
	for attempt := 0; ; attempt++ {
		// Every attempt pays the sampling cost; the first additionally
		// powers the board, exactly as the fault-free executor charges.
		c := e.s.AcquisitionCost(a, e.paid)
		out.Cost += c
		e.cfg.Profile.Charge(nodeID, a, c, 1)
		if e.paid[a] {
			out.RetryCost += c
		} else {
			e.paid[a] = true
		}
		switch o := inj.Attempt(rowIdx, a, attempt); o {
		case fault.OK:
			e.vals[a] = row[a]
			e.known[a] = true
			e.stale[a], e.haveStale[a] = row[a], true
			return true
		case fault.Stale:
			// Stuck sensor: it reports its previous latched value. With
			// nothing latched yet the first reading is necessarily fresh.
			if e.haveStale[a] {
				e.vals[a] = e.stale[a]
				out.StaleReads++
				if e.vals[a] != row[a] {
					out.Touched = true
				}
			} else {
				e.vals[a] = row[a]
				e.stale[a], e.haveStale[a] = row[a], true
			}
			e.known[a] = true
			return true
		case fault.FailDead:
			e.deadKnown[a] = true
			return e.attrFailed(rowIdx, a, row, out)
		default: // FailTransient, FailTimeout
			if o == fault.FailTimeout {
				surch := ret.TimeoutSurcharge(c)
				out.Cost += surch
				out.RetryCost += surch
				e.cfg.Profile.Charge(nodeID, a, surch, 0)
			}
			if attempt >= ret.MaxRetries {
				return e.attrFailed(rowIdx, a, row, out)
			}
			retry := attempt + 1
			b := ret.Backoff(retry, inj.JitterU(rowIdx, a, retry))
			out.Cost += b
			out.RetryCost += b
			e.cfg.Profile.Charge(nodeID, a, b, 0)
			out.Retries++
		}
	}
}

// attrFailed records an ultimate acquisition failure on attribute a and,
// under the Impute policy, substitutes a model prediction.
func (e *TupleExecutor) attrFailed(rowIdx, a int, row []schema.Value, out *TupleOutcome) bool {
	out.Failures++
	if e.cfg.Policy == Impute {
		v := e.imputeValue(a)
		e.vals[a] = v
		e.known[a] = true
		e.imputed[a] = true
		out.Imputed++
		if v != row[a] {
			out.Touched = true
		}
		return true
	}
	e.failed[a] = true
	return false
}

// imputeValue predicts attribute a from the genuinely observed values of
// this tuple: the model is conditioned on every known, non-imputed
// attribute and the argmax of the resulting histogram is returned.
// Imputed values are not used as evidence, so one bad prediction does not
// compound into the next.
func (e *TupleExecutor) imputeValue(a int) schema.Value {
	c := e.cfg.Model.Root()
	for k := range e.known {
		if k != a && e.known[k] && !e.imputed[k] {
			c = c.RestrictRange(k, query.Range{Lo: e.vals[k], Hi: e.vals[k]})
		}
	}
	h := c.Hist(a)
	best := 0
	for v := 1; v < len(h); v++ {
		if h[v] > h[best] {
			best = v
		}
	}
	return schema.Value(best)
}

// fallback resolves a tuple whose traversal hit a failed acquisition
// under the Abstain or Replan policy (Impute is handled inside ensure).
func (e *TupleExecutor) fallback(rowIdx int, row []schema.Value, out *TupleOutcome, depth int) query.Truth {
	if e.cfg.Policy != Replan || depth >= e.s.NumAttrs() {
		return query.Unknown
	}
	rp, err := e.residualPlan(out)
	if err != nil {
		return query.Unknown
	}
	out.Replanned = true
	return e.execPlan(rp, rowIdx, row, out, depth+1)
}

// residualPlan returns (building, compiling, and caching on first use)
// the plan for the query minus the predicates on currently failed
// attributes. Dropping a predicate-bearing attribute optimistically
// treats that predicate as satisfied, which marks the tuple as
// fault-touched.
func (e *TupleExecutor) residualPlan(out *TupleOutcome) (*program, error) {
	key := make([]byte, (len(e.failed)+7)/8)
	for a, f := range e.failed {
		if f {
			key[a/8] |= 1 << (a % 8)
			if e.q.PredOn(a) >= 0 {
				out.Touched = true
			}
		}
	}
	if p, ok := e.replans[string(key)]; ok {
		return p, nil
	}
	residual := make([]query.Pred, 0, len(e.q.Preds))
	for _, pd := range e.q.Preds {
		if !e.failed[pd.Attr] {
			residual = append(residual, pd)
		}
	}
	var rp *plan.Node
	if e.cfg.Replanner != nil {
		var err error
		rp, err = e.cfg.Replanner(append([]bool(nil), e.failed...), query.Query{Preds: residual})
		if err != nil {
			return nil, err
		}
		// A residual plan that is invalid or still touches a failed
		// attribute would fail again immediately; fall back to the
		// always-safe sequential plan.
		if rp != nil && rp.Validate(e.s) != nil {
			rp = nil
		}
		if rp != nil {
			for a, used := range rp.Attrs(e.s.NumAttrs()) {
				if used && e.failed[a] {
					rp = nil
					break
				}
			}
		}
	}
	if rp == nil {
		rp = plan.NewSeq(residual)
	}
	if e.replans == nil {
		e.replans = make(map[string]*program)
	}
	pg := compile(rp)
	e.replans[string(key)] = pg
	return pg, nil
}
