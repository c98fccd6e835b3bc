package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"runtime"
	"time"

	"acqp"
	"acqp/internal/model"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

// Planning-path errors mapped to HTTP statuses by the handlers.
var (
	errShed     = errors.New("serve: planning queue is full")
	errShutdown = errors.New("serve: server is shutting down")
)

// plannerParams is the resolved, clamped planner configuration for one
// request; it is part of the cache key (except parallelism, strict, and
// the timeout, which affect how the run behaves but never which plan the
// search returns — parallel search is plan-deterministic).
type plannerParams struct {
	name        string // "greedy", "exhaustive", "corrseq", "naive"
	model       string // statistics backend, one of model.Names()
	maxSplits   int
	splitPoints int
	parallelism int
	strict      bool
	traced      bool // client asked for the trace section (never part of the key)
	timeout     time.Duration
}

// resolveParams validates and clamps the request's planner selection.
func (s *Server) resolveParams(req planRequest) (plannerParams, error) {
	p := plannerParams{
		name:        req.Planner,
		model:       req.Model,
		maxSplits:   req.MaxSplits,
		splitPoints: req.SplitPoints,
		parallelism: req.Parallelism,
		strict:      req.Strict,
		traced:      req.Trace,
		timeout:     s.cfg.DefaultTimeout,
	}
	if p.name == "" {
		p.name = "greedy"
	}
	switch p.name {
	case "greedy", "exhaustive", "corrseq", "naive":
	default:
		return p, fmt.Errorf("unknown planner %q (want greedy, exhaustive, corrseq, or naive)", p.name)
	}
	if p.model == "" {
		p.model = s.cfg.DefaultModel
	}
	if !model.KnownName(p.model) {
		return p, fmt.Errorf("unknown model %q (want one of %v)", p.model, model.Names())
	}
	if p.maxSplits <= 0 {
		p.maxSplits = s.cfg.MaxSplits
	} else if p.maxSplits > 64 {
		p.maxSplits = 64
	}
	if p.splitPoints <= 0 {
		p.splitPoints = s.cfg.SplitPoints
	} else if p.splitPoints > 256 {
		p.splitPoints = 256
	}
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < p.timeout {
			p.timeout = t
		}
	}
	if p.parallelism < 0 {
		return p, fmt.Errorf("parallelism must be non-negative, got %d", p.parallelism)
	}
	if p.parallelism == 0 {
		p.parallelism = s.cfg.PlanParallelism
	}
	if max := runtime.GOMAXPROCS(0); p.parallelism > max {
		p.parallelism = max
	}
	return p, nil
}

// cacheKey identifies a planning outcome: planner configuration plus the
// statistics backend plus the canonical query plus the statistics epoch.
// The timeout is deliberately excluded — it changes how long planning may
// take, not which plan is optimal — so clients with different deadlines
// share cache entries. The model component appears only for non-empirical
// backends, keeping every pre-existing key byte-identical.
func cacheKey(p plannerParams, q query.Query, epoch uint64) string {
	key := fmt.Sprintf("%s/k%d/s%d@%d|%s", p.name, p.maxSplits, p.splitPoints, epoch, q.Key())
	if p.model != "" && p.model != model.NameEmpirical {
		key = "m=" + p.model + "/" + key
	}
	return key
}

// planOutcome is one completed planning run, in cache-ready form. The
// node is immutable after planning, so sharing it across cached
// responses and /execute runs is safe.
type planOutcome struct {
	node      *plan.Node
	rendered  string
	encoded   string // base64 of the wire encoding
	cost      float64
	naiveCost float64
	splits    int
	sizeBytes int
	degraded  bool
	epoch     uint64
	planMS    float64
	// traceSnap carries the planner run's phase timings and search
	// counters when the request asked for them. It describes one run, so
	// it is stripped before the outcome enters the cache: a cache hit
	// reports no trace because no planner ran. Requests that join another
	// caller's in-flight run only see a trace if that leader asked for one.
	traceSnap *trace.Snapshot
}

// trivialOutcome wraps a constant-answer plan (empty or unsatisfiable
// canonical query): no statistics, no planner, zero cost.
func (s *Server) trivialOutcome(result bool, epoch uint64) planOutcome {
	return s.finishOutcome(plan.NewLeaf(result), 0, 0, false, epoch, 0)
}

func (s *Server) finishOutcome(node *plan.Node, cost, naive float64, degraded bool, epoch uint64, elapsed time.Duration) planOutcome {
	enc := plan.Encode(node)
	return planOutcome{
		node:      node,
		rendered:  plan.Render(node, s.s),
		encoded:   base64.StdEncoding.EncodeToString(enc),
		cost:      cost,
		naiveCost: naive,
		splits:    node.NumSplits(),
		sizeBytes: len(enc),
		degraded:  degraded,
		epoch:     epoch,
		planMS:    float64(elapsed) / float64(time.Millisecond),
	}
}

// runPlanner executes one planner invocation under the request deadline.
// It is called from worker goroutines; the distribution snapshot is
// read-only and each run derives its own conditioning contexts, so
// concurrent runs never share mutable state.
func (s *Server) runPlanner(d distEpoch, q query.Query, p plannerParams) (planOutcome, error) {
	ctx, cancel := context.WithTimeout(s.baseCtx, p.timeout)
	defer cancel()
	count(&s.metrics.plannerCalls, 1)
	// Every run carries a span: its search counters feed the /metrics
	// aggregates, and its snapshot feeds the response's trace section when
	// the client asked for one. Spans never change planner output (pinned
	// by byte-identity tests at the opt and serve layers).
	sp := trace.NewSpan(time.Now)
	ctx = trace.NewContext(ctx, sp)
	start := time.Now()

	var (
		node     *plan.Node
		cost     float64
		degraded bool
		err      error
	)
	switch p.name {
	case "greedy":
		g := opt.Greedy{
			SPSF:        opt.UniformSPSFSame(s.s, p.splitPoints),
			MaxSplits:   p.maxSplits,
			Base:        opt.SeqOpt,
			Parallelism: p.parallelism,
		}
		node, cost = g.Plan(ctx, d.dist, q)
		degraded = ctx.Err() != nil
	case "exhaustive":
		e := opt.Exhaustive{
			SPSF:        opt.UniformSPSFSame(s.s, p.splitPoints),
			Budget:      s.cfg.ExhaustiveBudget,
			Parallelism: p.parallelism,
		}
		node, cost, err = e.Plan(ctx, d.dist, q)
		if err != nil {
			if s.baseCtx.Err() != nil {
				return planOutcome{}, errShutdown
			}
			if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, opt.ErrBudget) {
				return planOutcome{}, err
			}
			if p.strict {
				// Strict clients asked for the true optimum or a typed
				// failure, never a silent downgrade.
				if errors.Is(err, opt.ErrBudget) {
					return planOutcome{}, fmt.Errorf("%w", acqp.ErrBudgetExceeded)
				}
				return planOutcome{}, err
			}
			// Deadline or budget exhausted: degrade to the best sequential
			// plan, which is fast to build and always valid. It runs under
			// baseCtx, not the (already expired) request context, so the
			// degraded answer can still be produced for the waiting client —
			// but Shutdown must be able to interrupt it, which a detached
			// context.Background() would not allow.
			if s.hookBeforeFallback != nil {
				s.hookBeforeFallback()
			}
			node, cost, err = opt.CorrSeqPlanner{Alg: opt.SeqGreedy}.Plan(trace.NewContext(s.baseCtx, sp), d.dist, q)
			if err != nil {
				if s.baseCtx.Err() != nil {
					return planOutcome{}, errShutdown
				}
				return planOutcome{}, err
			}
			degraded = true
		}
	case "corrseq":
		node, cost, err = opt.CorrSeqPlanner{Alg: opt.SeqOpt}.Plan(ctx, d.dist, q)
	case "naive":
		node, cost, err = opt.NaivePlanner{}.Plan(ctx, d.dist, q)
	}
	if err != nil {
		if s.baseCtx.Err() != nil {
			return planOutcome{}, errShutdown
		}
		return planOutcome{}, err
	}
	elapsed := time.Since(start)
	if degraded {
		count(&s.metrics.degraded, 1)
	}

	// The naive baseline cost contextualizes the savings for clients; it
	// is analytic and cheap relative to any planning run.
	naive := 0.0
	if p.name != "naive" {
		// Under baseCtx so Shutdown interrupts the comparison run too.
		if _, nc, nerr := (opt.NaivePlanner{}).Plan(s.baseCtx, d.dist, q); nerr == nil {
			naive = nc
		}
	} else {
		naive = cost
	}
	s.metrics.mergeSpan(sp)
	out := s.finishOutcome(node, cost, naive, degraded, d.epoch, elapsed)
	if p.traced {
		out.traceSnap = sp.Snapshot()
	}
	return out, nil
}

// distEpoch pairs a distribution with the epoch it was installed at.
type distEpoch struct {
	dist  stats.Dist
	epoch uint64
}

// planCached answers a planning request through the cache and
// singleflight group. cached reports an LRU hit; shared reports a result
// taken from a concurrent identical request's run. noStore suppresses
// cache writes while still allowing reads: fault-injected requests use it
// so the what-if path can never populate the cache.
func (s *Server) planCached(reqCtx context.Context, canon query.Query, p plannerParams, noCache, noStore bool) (out planOutcome, cached, shared bool, err error) {
	dist, epoch, err := s.modelSnapshot(p.model)
	if err != nil {
		return planOutcome{}, false, false, fmt.Errorf("serve: fitting model %q: %w", p.model, err)
	}
	key := cacheKey(p, canon, epoch)
	// Strict and lax requests share cache entries (a cached plan is never
	// degraded, so it satisfies both) but not singleflight runs: a lax
	// leader would hand a strict follower a silently degraded plan, and a
	// strict leader would hand a lax follower a typed error.
	flightKey := key
	if p.strict {
		flightKey += "|strict"
	}
	if !noCache {
		if hit, ok := s.cache.get(key); ok {
			count(&s.metrics.cacheHits, 1)
			return hit, true, false, nil
		}
	}
	out, err, shared = s.flight.do(reqCtx, flightKey, func() (planOutcome, error) {
		// Re-check the cache inside the flight: a previous leader may have
		// populated it between our miss and acquiring leadership.
		if !noCache {
			if hit, ok := s.cache.get(key); ok {
				return hit, nil
			}
		}
		done := make(chan struct{})
		var jout planOutcome
		var jerr error
		job := func() {
			defer close(done)
			jout, jerr = s.runPlanner(distEpoch{dist: dist, epoch: epoch}, canon, p)
		}
		if !s.submit(job) {
			count(&s.metrics.shed, 1)
			return planOutcome{}, errShed
		}
		select {
		case <-done:
		case <-s.baseCtx.Done():
			// The job may still be queued, never to run; abandon it.
			return planOutcome{}, errShutdown
		}
		if jerr != nil {
			return planOutcome{}, jerr
		}
		// Degraded plans reflect a deadline, not the query, and
		// fault-injected requests are what-if analyses: never cached.
		if !jout.degraded && !noCache && !noStore {
			stored := jout
			stored.traceSnap = nil // a cached hit reports no planner run
			s.cache.add(key, epoch, stored)
		}
		return jout, nil
	})
	if err != nil {
		return planOutcome{}, false, shared, err
	}
	if shared {
		count(&s.metrics.flightShared, 1)
	} else {
		count(&s.metrics.cacheMisses, 1)
	}
	return out, false, shared, nil
}
