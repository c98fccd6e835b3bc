package exec

import (
	"context"
	"errors"
	"fmt"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/trace"
)

// ErrInvalidRequest is wrapped by every Execute validation failure;
// callers match it with errors.Is.
var ErrInvalidRequest = errors.New("exec: invalid request")

// Options composes the execution features. The zero value is a plain
// metered run over the whole source, verified against ground truth.
type Options struct {
	// Source supplies the tuples. Required.
	Source RowSource
	// Profile, when non-nil, receives per-plan-node and per-attribute
	// cost attribution (see trace.ExecProfile). Size it for the plan's
	// Preorder length. Nil disables attribution at zero cost.
	Profile *trace.ExecProfile
	// Faults, when non-nil, runs the fault-aware executor: acquisition
	// attempts are filtered through the injector and failures resolved by
	// the fallback policy, with retry costs metered (see FaultConfig; its
	// own Profile field is ignored — set Options.Profile).
	Faults *FaultConfig
	// Limit, when positive, stops execution once Limit satisfying tuples
	// have been found; their global row indexes are collected in
	// Result.Rows. Mutually exclusive with Exists.
	Limit int
	// Exists stops execution at the first satisfying tuple, reported in
	// Result.Found / Result.FoundRow. Mutually exclusive with Limit.
	Exists bool
	// Order visits the source's rows in this explicit order (global row
	// indexes). Requires a Source implementing RandomAccess.
	Order []int
	// BatchSize overrides the batch size of executor-built adapters (the
	// Order gather source). Sources carry their own batch size; this does
	// not change it. Zero selects DefaultBatchSize.
	BatchSize int
	// SkipVerify disables the ground-truth check that counts
	// Result.Mismatches, for callers that run a plan without its query
	// (existential and limit probes).
	SkipVerify bool
}

// Request is one execution: a plan over a source, verified against the
// query, under composable options.
type Request struct {
	Schema  *schema.Schema
	Plan    *plan.Node
	Query   query.Query
	Options Options
}

// FaultStats is the fault-path accounting attached to a Result when
// Options.Faults is set.
type FaultStats struct {
	// Failures counts (tuple, attribute) acquisition failures after all
	// retries.
	Failures int
	// Retries counts retry attempts performed.
	Retries int
	// RetryCost is the portion of TotalCost charged to retries, backoff
	// waits, and timeout surcharges.
	RetryCost float64
	// StaleReads counts acquisitions satisfied by a stuck previous value.
	StaleReads int
	// Abstained counts tuples answered Unknown; AbstainedTrue is the
	// subset whose ground truth was positive (answers lost to faults).
	Abstained     int
	AbstainedTrue int
	// Imputed counts model-predicted attribute values.
	Imputed int
	// Replans counts tuples answered by a residual plan.
	Replans int
	// FalsePositives / FalseNegatives count fault-touched tuples answered
	// wrongly (selected-but-false / rejected-but-true).
	FalsePositives int
	FalseNegatives int
}

// Execute runs one plan over one source with acquisition metering.
// Profiling, fault injection, limits, and existential short-circuiting
// compose freely; with none of them set it produces a Result
// bit-identical to the legacy tuple-at-a-time executor.
//
// Execution streams: the source is pulled one bounded batch at a time,
// so sources larger than memory (and live stream windows) execute in
// constant space. ctx is checked between batches; on cancellation the
// partial Result is returned alongside an error wrapping ctx.Err().
func Execute(ctx context.Context, req Request) (Result, error) {
	if err := validate(req); err != nil {
		return Result{}, err
	}
	o := req.Options
	src := o.Source
	if len(o.Order) > 0 {
		src = NewOrderedSource(src.(RandomAccess), o.Order, o.BatchSize)
	}
	if o.Faults != nil {
		return executeFaulty(ctx, req, src)
	}
	return executePristine(ctx, req, src)
}

func validate(req Request) error {
	o := req.Options
	if err := validatePlan(req.Schema, req.Plan, req.Query); err != nil {
		return err
	}
	switch {
	case o.Source == nil:
		return fmt.Errorf("%w: missing source", ErrInvalidRequest)
	case o.Source.NumAttrs() != req.Schema.NumAttrs():
		return fmt.Errorf("%w: source yields %d attributes, schema has %d",
			ErrInvalidRequest, o.Source.NumAttrs(), req.Schema.NumAttrs())
	case o.Exists && o.Limit > 0:
		return fmt.Errorf("%w: Exists and Limit are mutually exclusive", ErrInvalidRequest)
	case o.Limit < 0:
		return fmt.Errorf("%w: negative Limit %d", ErrInvalidRequest, o.Limit)
	}
	if len(o.Order) > 0 {
		if _, ok := o.Source.(RandomAccess); !ok {
			return fmt.Errorf("%w: Order requires a random-access source", ErrInvalidRequest)
		}
	}
	return nil
}

// validatePlan checks that the plan and the query's predicates only
// reference attributes of the schema, so execution cannot index out of
// range.
func validatePlan(s *schema.Schema, p *plan.Node, q query.Query) error {
	switch {
	case s == nil || s.NumAttrs() == 0:
		return fmt.Errorf("%w: missing schema", ErrInvalidRequest)
	case p == nil:
		return fmt.Errorf("%w: missing plan", ErrInvalidRequest)
	}
	if err := p.Validate(s); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	for _, pd := range q.Preds {
		if pd.Attr < 0 || pd.Attr >= s.NumAttrs() {
			return fmt.Errorf("%w: query predicate attribute %d out of range", ErrInvalidRequest, pd.Attr)
		}
	}
	return nil
}

// interrupted wraps a context cancellation observed between batches.
func interrupted(res Result, err error) (Result, error) {
	return res, fmt.Errorf("exec: execution interrupted after %d tuples: %w", res.Tuples, err)
}

// executePristine is the fault-free streaming loop: compile the plan,
// pull batches, evaluate each row against the batch's columns directly
// (no per-row copy), and fold outcomes into the Result in exactly the
// accumulation order of the legacy tuple-at-a-time executor.
func executePristine(ctx context.Context, req Request, src RowSource) (Result, error) {
	s, q, o := req.Schema, req.Query, req.Options
	pg := compile(req.Plan)
	prof := o.Profile
	pg.prof = prof
	res := Result{Acquisitions: make([]int64, s.NumAttrs())}
	if o.Exists {
		res.FoundRow = -1
	}
	acquired := make([]bool, s.NumAttrs())
	for {
		if err := ctx.Err(); err != nil {
			return interrupted(res, err)
		}
		b, n, err := src.Next()
		if err != nil {
			return res, err
		}
		if n == 0 {
			return res, nil
		}
		cols := b.cols
		for i := 0; i < n; i++ {
			got, cost := pg.run(s, cols, i, acquired)
			prof.FinishTuple()
			res.Tuples++
			res.TotalCost += cost
			if cost > res.MaxCost {
				res.MaxCost = cost
			}
			if got {
				res.Selected++
			}
			if !o.SkipVerify && got != evalCols(q, cols, i) {
				res.Mismatches++
			}
			// Count and clear in one sweep: acquired is all false again
			// before the next tuple.
			for a, acq := range acquired {
				if acq {
					res.Acquisitions[a]++
					acquired[a] = false
				}
			}
			if got {
				if o.Exists {
					res.Found = true
					res.FoundRow = b.RowIndex(i)
					return res, nil
				}
				if o.Limit > 0 {
					res.Rows = append(res.Rows, b.RowIndex(i))
					if len(res.Rows) >= o.Limit {
						return res, nil
					}
				}
			}
		}
	}
}

// executeFaulty is the streaming loop under fault injection: one
// TupleExecutor carries cross-tuple state (stale latches, learned-dead
// sensors, residual-plan cache) across batches, and outcomes are folded
// with answered-only accounting (see Result.Fault).
func executeFaulty(ctx context.Context, req Request, src RowSource) (Result, error) {
	s, q, o := req.Schema, req.Query, req.Options
	cfg := *o.Faults
	cfg.Profile = o.Profile
	ex, err := NewTupleExecutor(s, req.Plan, q, cfg)
	if err != nil {
		return Result{}, err
	}
	// ex is private to this run, so the Result can share its live counts.
	res := Result{Acquisitions: ex.AcquisitionCounts(), Fault: &FaultStats{}}
	fs := res.Fault
	if o.Exists {
		res.FoundRow = -1
	}
	var row []schema.Value
	for {
		if err := ctx.Err(); err != nil {
			return interrupted(res, err)
		}
		b, n, err := src.Next()
		if err != nil {
			return res, err
		}
		if n == 0 {
			return res, nil
		}
		for i := 0; i < n; i++ {
			row = b.Row(i, row)
			out := ex.ExecTuple(b.RowIndex(i), row)
			cfg.Profile.FinishTuple()
			res.Tuples++
			res.TotalCost += out.Cost
			if out.Cost > res.MaxCost {
				res.MaxCost = out.Cost
			}
			fs.RetryCost += out.RetryCost
			fs.Retries += out.Retries
			fs.Failures += out.Failures
			fs.StaleReads += out.StaleReads
			fs.Imputed += out.Imputed
			if out.Replanned {
				fs.Replans++
			}
			var truth bool
			if !o.SkipVerify {
				truth = q.Eval(row)
			}
			switch out.Answer {
			case query.Unknown:
				fs.Abstained++
				if truth {
					fs.AbstainedTrue++
				}
			case query.True:
				res.Selected++
				if !o.SkipVerify && !truth {
					if out.Touched {
						fs.FalsePositives++
					} else {
						res.Mismatches++
					}
				}
			default:
				if !o.SkipVerify && truth {
					if out.Touched {
						fs.FalseNegatives++
					} else {
						res.Mismatches++
					}
				}
			}
			if out.Answer == query.True {
				if o.Exists {
					res.Found = true
					res.FoundRow = b.RowIndex(i)
					return res, nil
				}
				if o.Limit > 0 {
					res.Rows = append(res.Rows, b.RowIndex(i))
					if len(res.Rows) >= o.Limit {
						return res, nil
					}
				}
			}
		}
	}
}

// evalCols is query.Query.Eval over a batch's columns, avoiding the
// per-row copy the slice-based Eval would need.
func evalCols(q query.Query, cols [][]schema.Value, i int) bool {
	for _, p := range q.Preds {
		if !p.Eval(cols[p.Attr][i]) {
			return false
		}
	}
	return true
}
