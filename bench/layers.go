package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"acqp/internal/cluster"
	"acqp/internal/datagen"
	"acqp/internal/exec"
	"acqp/internal/model"
	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/serve"
	"acqp/internal/sql"
	"acqp/internal/stats"
	"acqp/internal/stream"
	"acqp/internal/trace"
	"acqp/internal/workload"
)

// The in-process half of the traced pass. It replays a fixed sample of
// every workload's requests through serve.New + ServeHTTP, without a
// socket, and beside each request calls the public functions of the
// layers that request crosses, each call under a span. A layer's figure
// is the median self time of its spans. The primitives no request names
// directly (the statistics restrictions, model fitting, the executor's
// variants, the exhaustive search) are timed the same way on inputs
// taken from those samples.
//
// Calls per figure, at the full run length; a shorter run scales them
// down, to no fewer than minCalls.
const (
	callsHit      = 1200 // plan_hit requests: three quarters fast-path repeats, a quarter respellings
	callsMiss     = 60   // plan_miss requests, each replayed through the planner a second time
	callsMissBN   = 5    // plan_miss_bn requests, likewise
	callsExecute  = 240  // execute_hit requests
	callsIngest   = 200  // ingest batches
	callsRefresh  = 4    // forced refreshes, each after re-planning the pool of ingest_refresh
	callsStats    = 400  // empirical restrictions and joints
	callsModel    = 60   // model restrictions
	callsFit      = 8    // model fits
	callsAllocs   = 20   // requests behind an allocation count of a millisecond-scale path
	callsFast     = 200  // requests behind an allocation count of a microsecond-scale path
	callsExecKind = 60   // executor runs per variant
	callsOwner    = 200  // batches of ownerBatch shard lookups
	ownerBatch    = 256
	minCalls      = 3
)

// layerPass carries the in-process pass: its tracers, one per workload,
// and the checks it makes along the way.
type layerPass struct {
	w         *world
	seed      int64
	scale     float64
	tracers   map[string]*tracer
	m         map[string]metric
	attempted int
	failed    int
	failures  []string
}

func (p *layerPass) calls(full int) int {
	n := int(float64(full)*p.scale + 0.5)
	if n < minCalls {
		n = minCalls
	}
	return n
}

func (p *layerPass) check(ok bool, format string, args ...any) {
	p.attempted++
	if !ok {
		p.failed++
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

func (p *layerPass) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// sink is the response writer of an in-process request, reused so that
// an allocation count shows the server's allocations and not a
// recorder's.
type sink struct {
	h      http.Header
	buf    bytes.Buffer
	status int
}

func newSink() *sink { return &sink{h: http.Header{}} }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return s.buf.Write(b) }
func (s *sink) WriteHeader(code int)        { s.status = code }

func post(ctx context.Context, path string, body []byte) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
}

// serveOne runs one request through the server: the in-process
// equivalent of client.post.
func (s *sink) serveOne(ctx context.Context, srv http.Handler, path string, body []byte) (int, []byte, error) {
	req, err := post(ctx, path, body)
	if err != nil {
		return 0, nil, err
	}
	s.serve(srv, req)
	return s.status, s.buf.Bytes(), nil
}

// requestAllocs is allocsOf for n in-process requests, each made before
// the measuring starts so that only the server's allocations count.
func (s *sink) requestAllocs(ctx context.Context, srv http.Handler, n int, request func(i int) request) (allocs, kb float64, err error) {
	reqs := make([]*http.Request, n)
	for i := range reqs {
		r := request(i)
		if reqs[i], err = post(ctx, r.path, r.body); err != nil {
			return 0, 0, err
		}
	}
	allocs, kb = allocsOf(n, func(i int) { s.serve(srv, reqs[i]) })
	return allocs, kb, nil
}

func (s *sink) serve(srv http.Handler, req *http.Request) {
	clear(s.h)
	s.buf.Reset()
	s.status = http.StatusOK
	srv.ServeHTTP(s, req)
}

// allocsOf returns the median number of heap allocations and of KiB
// allocated by one call of f(i), over n calls measured one by one. The
// median of whole counts repeats exactly from run to run where a mean
// would carry the odd background allocation.
func allocsOf(n int, f func(i int)) (allocs, kb float64) {
	var before, after runtime.MemStats
	counts, bytes := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&before)
		f(i)
		runtime.ReadMemStats(&after)
		counts[i] = float64(after.Mallocs - before.Mallocs)
		bytes[i] = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	}
	return median(counts), median(bytes)
}

// selfMedian is the median self time, in nanoseconds, of the spans of
// one name.
func selfMedian(self map[string][]float64, name string) float64 { return median(self[name]) }

func (p *layerPass) newServer() (*serve.Server, error) {
	return serve.New(serve.Config{Schema: p.w.s, History: p.w.tbl})
}

// measureLayers runs the in-process pass and returns its metrics, the
// number of checks it made and how many failed. scale shrinks the call
// counts of a shortened run.
func measureLayers(ctx context.Context, w *world, seed int64, scale float64, tracers map[string]*tracer) (*layerPass, error) {
	if scale > 1 {
		scale = 1
	}
	p := &layerPass{w: w, seed: seed, scale: scale, tracers: tracers, m: map[string]metric{}}
	steps := []func(context.Context) error{
		p.planHit, p.planMiss, p.planMissBN, p.executeHit, p.ingestRefresh,
		p.statistics, p.models, p.exhaustive, p.shardOwner,
	}
	for _, step := range steps {
		if err := step(ctx); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// replay sends request i of a sequence through srv under a span named
// name, child of the request's root span, and checks the answer like a
// live one. It returns the span, for its duration.
func (p *layerPass) replay(ctx context.Context, tr *tracer, chk *checker, srv http.Handler, out *sink, req request, root, i int, name string) (sp int, ans answer, err error) {
	httpReq, err := post(ctx, req.path, req.body)
	if err != nil {
		return 0, ans, err
	}
	sp = tr.begin(name, root, i)
	out.serve(srv, httpReq)
	tr.end(sp)
	ans, reason := chk.inspect(req, out.status, out.buf.Bytes(), nil)
	p.check(reason == "", "%s request %d in process: %s", chk.spec.name, i, reason)
	return sp, ans, nil
}

// parseLayers replays the two layers every non-replayed request pays:
// the SQL parser and the canonicalizer with its cache key.
func (p *layerPass) parseLayers(tr *tracer, root, i int, req request) (query.Query, error) {
	sp := tr.begin("sql.Parse", root, i)
	st, err := sql.Parse(p.w.s, req.sql)
	tr.end(sp)
	if err != nil {
		return query.Query{}, fmt.Errorf("bench: generated SQL does not parse: %w", err)
	}
	sp = tr.begin("query.Canonical", root, i)
	preds, _ := st.Predicates()
	canon, err := query.Canonical(p.w.s, preds)
	key := canon.Key()
	tr.end(sp)
	if err != nil {
		return query.Query{}, fmt.Errorf("bench: generated SQL does not canonicalize: %w", err)
	}
	p.check(key == req.q.Key(), "request %d canonicalizes to %s, generated as %s", i, key, req.q.Key())
	return canon, nil
}

// warmPool plans a pool on an in-process server, twice for a /v1/plan
// pool, like setUp does on a live one.
func (p *layerPass) warmPool(ctx context.Context, srv http.Handler, out *sink, chk *checker, seq *sequence) error {
	passes := 1
	if seq.spec.path == "/v1/plan" {
		passes = 2
	}
	for k := 0; k < passes; k++ {
		for i, req := range seq.pool {
			status, body, err := out.serveOne(ctx, srv, req.path, req.body)
			if _, reason := chk.inspect(req, status, body, err); reason != "" {
				return fmt.Errorf("bench: in-process warm-up request %d of %s: %s", i, seq.spec.name, reason)
			}
		}
	}
	return nil
}

func (p *layerPass) sequenceOf(name string) (*sequence, *checker, *tracer) {
	spec, _ := findWorkload(name)
	return newSequence(p.w, spec, p.seed), newChecker(p.w, spec, p.seed), p.tracers[name]
}

func shutdown(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// planHit: the fast-path replay, the parse + canonicalize + LRU-hit path
// of a respelling, and the two layers that path adds.
func (p *layerPass) planHit(ctx context.Context) (err error) {
	seq, chk, tr := p.sequenceOf("plan_hit")
	srv, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(srv)) }()
	out := newSink()
	if err := p.warmPool(ctx, srv, out, chk, seq); err != nil {
		return err
	}
	n := p.calls(callsHit)
	for i := 0; i < n; i++ {
		req := seq.at(i)
		name := "serve.fast_hit"
		if req.variant {
			name = "serve.lru_hit"
		}
		root := tr.begin("request", noParent, i)
		if _, _, err := p.replay(ctx, tr, chk, srv, out, req, root, i, name); err != nil {
			return err
		}
		if req.variant {
			if _, err := p.parseLayers(tr, root, i, req); err != nil {
				return err
			}
		}
		tr.end(root)
	}
	self := selfTimes(tr.spans)
	p.set("serve.fast_hit_us", selfMedian(self, "serve.fast_hit")/1e3, "us")
	p.set("serve.lru_hit_us", selfMedian(self, "serve.lru_hit")/1e3, "us")
	p.set("sql.parse_us", selfMedian(self, "sql.Parse")/1e3, "us")
	p.set("query.canonical_us", selfMedian(self, "query.Canonical")/1e3, "us")

	// Allocation counts, on requests past the timed sample so that the
	// respellings are still unseen.
	var repeats, variants []request
	for i := n; len(repeats) < p.calls(callsFast) || len(variants) < p.calls(callsFast); i++ {
		if req := seq.at(i); req.variant {
			variants = append(variants, req)
		} else {
			repeats = append(repeats, req)
		}
	}
	for _, kind := range []struct {
		name string
		reqs []request
	}{{"serve.fast_hit_allocs", repeats}, {"serve.lru_hit_allocs", variants}} {
		allocs, _, err := out.requestAllocs(ctx, srv, p.calls(callsFast), func(i int) request { return kind.reqs[i] })
		if err != nil {
			return err
		}
		p.set(kind.name, allocs, "count")
	}
	return nil
}

// greedy is the planner configuration the server runs by default.
func (p *layerPass) greedy() *opt.Greedy {
	return &opt.Greedy{SPSF: opt.UniformSPSFSame(p.w.s, 8), MaxSplits: 5, Base: opt.SeqOpt, Parallelism: 1}
}

// planMiss: a request that has to be planned, and beside it the calls
// the server makes to answer it.
func (p *layerPass) planMiss(ctx context.Context) (err error) {
	seq, chk, tr := p.sequenceOf("plan_miss")
	srv, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(srv)) }()
	out := newSink()
	dist := stats.NewEmpirical(p.w.tbl)
	g := p.greedy()
	n := p.calls(callsMiss)
	var sizes, costUS, decodeUS, glueUS []float64
	for i := 0; i < n; i++ {
		req := seq.at(i)
		root := tr.begin("request", noParent, i)
		var (
			ans         answer
			served      int
			node        *plan.Node
			enc         []byte
			cost, naive float64
			layers      int64
		)
		throughServer := func() (err error) {
			served, ans, err = p.replay(ctx, tr, chk, srv, out, req, root, i, "serve.miss")
			return err
		}
		throughLayers := func() error {
			from := len(tr.spans)
			canon, err := p.parseLayers(tr, root, i, req)
			if err != nil {
				return err
			}
			sp := tr.begin("opt.Greedy.Plan", root, i)
			node, cost = g.Plan(ctx, dist, canon)
			tr.end(sp)
			sp = tr.begin("opt.NaivePlanner.Plan", root, i)
			_, naive, err = opt.NaivePlanner{}.Plan(ctx, dist, canon)
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("plan.Encode", root, i)
			enc = plan.Encode(node)
			tr.end(sp)
			for _, s := range tr.spans[from:] {
				layers += s.EndNS - s.StartNS
			}
			return nil
		}
		// Whichever runs second finds the query's rows in the processor's
		// caches; alternating the order keeps that out of the difference.
		steps := []func() error{throughServer, throughLayers}
		if i%2 == 1 {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		tr.end(root)
		glueUS = append(glueUS, float64(tr.spans[served].EndNS-tr.spans[served].StartNS-layers)/1e3)
		p.check(base64.StdEncoding.EncodeToString(enc) == ans.PlanB64, "plan_miss request %d: the server's plan differs from opt.Greedy's", i)
		p.check(cost == ans.ExpectedCost && naive == ans.NaiveCost, "plan_miss request %d: the server's costs differ from the planners'", i)
		sizes = append(sizes, float64(len(enc)))

		// Two plan-layer calls no request path makes, on the same plans.
		t0 := time.Now()
		dec, err := plan.Decode(p.w.s, enc)
		decodeUS = append(decodeUS, float64(time.Since(t0))/1e3)
		p.check(err == nil && plan.Equal(dec, node), "plan_miss request %d: the plan does not survive encoding", i)
		t0 = time.Now()
		again := plan.ExpectedCostRoot(node, dist)
		costUS = append(costUS, float64(time.Since(t0))/1e3)
		p.check(abs(again-cost) <= 1e-9*(1+abs(cost)), "plan_miss request %d: plan.ExpectedCostRoot %g, planner said %g", i, again, cost)
	}
	self := selfTimes(tr.spans)
	p.set("serve.miss_ms", selfMedian(self, "serve.miss")/1e6, "ms")
	p.set("serve.glue_us", median(glueUS), "us")
	p.set("opt.greedy_ms", selfMedian(self, "opt.Greedy.Plan")/1e6, "ms")
	p.set("opt.naive_us", selfMedian(self, "opt.NaivePlanner.Plan")/1e3, "us")
	p.set("plan.encode_us", selfMedian(self, "plan.Encode")/1e3, "us")
	p.set("plan.decode_us", median(decodeUS), "us")
	p.set("plan.expected_cost_us", median(costUS), "us")
	p.set("plan.size_bytes", median(sizes), "B")

	var seqUS []float64
	for i := 0; i < n; i++ {
		q := seq.at(i).q
		t0 := time.Now()
		opt.SequentialPlan(opt.SeqOpt, p.w.s, dist.Root(), query.FullBox(p.w.s), q)
		seqUS = append(seqUS, float64(time.Since(t0))/1e3)
	}
	p.set("opt.seq_us", median(seqUS), "us")

	k := p.calls(callsAllocs)
	allocs, kb, err := out.requestAllocs(ctx, srv, k, func(i int) request { return seq.at(n + i) })
	if err != nil {
		return err
	}
	p.set("serve.miss_allocs", allocs, "count")
	p.set("serve.miss_kb", kb, "KiB")
	allocs, kb = allocsOf(k, func(i int) { g.Plan(ctx, dist, seq.at(n+i).q) })
	p.set("opt.greedy_allocs", allocs, "count")
	p.set("opt.greedy_kb", kb, "KiB")
	return nil
}

// planMissBN: the same on the Bayesian network.
func (p *layerPass) planMissBN(ctx context.Context) (err error) {
	seq, chk, tr := p.sequenceOf("plan_miss_bn")
	srv, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(srv)) }()
	out := newSink()
	bn, err := model.Fit(model.NameBN, p.w.tbl, model.Opts{})
	if err != nil {
		return err
	}
	// The first request fits the server's own network; it is not timed.
	warm := seq.warm[0]
	status, body, err := out.serveOne(ctx, srv, warm.path, warm.body)
	if _, reason := chk.inspect(warm, status, body, err); reason != "" {
		return fmt.Errorf("bench: in-process warm-up of plan_miss_bn: %s", reason)
	}
	g := p.greedy()
	for i, n := 0, p.calls(callsMissBN); i < n; i++ {
		req := seq.at(i)
		root := tr.begin("request", noParent, i)
		_, ans, err := p.replay(ctx, tr, chk, srv, out, req, root, i, "serve.miss_bn")
		if err != nil {
			return err
		}
		sp := tr.begin("opt.Greedy.Plan", root, i)
		node, _ := g.Plan(ctx, bn, req.q)
		tr.end(sp)
		tr.end(root)
		p.check(base64.StdEncoding.EncodeToString(plan.Encode(node)) == ans.PlanB64, "plan_miss_bn request %d: the server's plan differs from opt.Greedy's", i)
	}
	self := selfTimes(tr.spans)
	p.set("serve.miss_bn_ms", selfMedian(self, "serve.miss_bn")/1e6, "ms")
	p.set("opt.greedy_bn_ms", selfMedian(self, "opt.Greedy.Plan")/1e6, "ms")
	return nil
}

// executeHit: a cached plan run over the window, the two calls that
// make up most of it, and the executor's other ways of walking a plan.
func (p *layerPass) executeHit(ctx context.Context) (err error) {
	seq, chk, tr := p.sequenceOf("execute_hit")
	srv, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(srv)) }()
	out := newSink()
	if err := p.warmPool(ctx, srv, out, chk, seq); err != nil {
		return err
	}
	win, err := stream.NewWindow(p.w.s, windowSize)
	if err != nil {
		return err
	}
	history := p.w.window()
	var row []schema.Value
	for r := 0; r < history.NumRows(); r++ {
		row = history.Row(r, row)
		win.Push(row)
	}
	plans := make([]*plan.Node, len(seq.pool))
	n := p.calls(callsExecute)
	for i := 0; i < n; i++ {
		req := seq.at(i)
		root := tr.begin("request", noParent, i)
		_, ans, err := p.replay(ctx, tr, chk, srv, out, req, root, i, "serve.execute")
		if err != nil {
			return err
		}
		if plans[req.pool] == nil {
			raw, err := base64.StdEncoding.DecodeString(ans.PlanB64)
			if err != nil {
				return err
			}
			if plans[req.pool], err = plan.Decode(p.w.s, raw); err != nil {
				return err
			}
		}
		sp := tr.begin("stream.Window.Materialize", root, i)
		tbl := win.Materialize()
		tr.end(sp)
		sp = tr.begin("exec.Execute", root, i)
		res, err := exec.Execute(ctx, exec.Request{Schema: p.w.s, Plan: plans[req.pool], Query: req.q,
			Options: exec.Options{Source: exec.NewTableSource(tbl, 0)}})
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return err
		}
		p.check(res.Mismatches == 0 && ans.MeanCost != nil && abs(res.MeanCost()-*ans.MeanCost) <= 1e-9*(1+res.MeanCost()),
			"execute_hit request %d: exec.Execute on the same window disagrees with the server", i)
	}
	self := selfTimes(tr.spans)
	p.set("serve.execute_us", selfMedian(self, "serve.execute")/1e3, "us")
	p.set("stream.materialize_us", selfMedian(self, "stream.Window.Materialize")/1e3, "us")
	p.set("exec.tuple_ns", selfMedian(self, "exec.Execute")/windowSize, "ns")

	allocs, _, err := out.requestAllocs(ctx, srv, p.calls(callsFast), func(i int) request { return seq.at(n + i) })
	if err != nil {
		return err
	}
	p.set("serve.execute_allocs", allocs, "count")

	// The executor's variants, on the pool's plans in turn. No workload
	// asks for a profile or for faults, so these move no end-to-end
	// metric; they are on record because the three walks are due to
	// become one.
	tbl := win.Materialize()
	kinds := []struct {
		name string
		opts func(node *plan.Node) exec.Options
	}{
		{"exec.window_tuple_ns", func(*plan.Node) exec.Options { return exec.Options{Source: win.Source(0)} }},
		{"exec.profiled_tuple_ns", func(node *plan.Node) exec.Options {
			return exec.Options{Source: exec.NewTableSource(tbl, 0), Profile: trace.NewExecProfile(len(plan.NodeIDs(node)), p.w.s.NumAttrs())}
		}},
		{"exec.faulty_tuple_ns", func(*plan.Node) exec.Options {
			return exec.Options{Source: exec.NewTableSource(tbl, 0), Faults: &exec.FaultConfig{}}
		}},
	}
	var known []int // pool queries whose plan the sample above met
	for q, node := range plans {
		if node != nil {
			known = append(known, q)
		}
	}
	for _, kind := range kinds {
		var ns []float64
		for i, k := 0, p.calls(callsExecKind); i < k; i++ {
			q := known[i%len(known)]
			opts := kind.opts(plans[q])
			t0 := time.Now()
			res, err := exec.Execute(ctx, exec.Request{Schema: p.w.s, Plan: plans[q], Query: seq.pool[q].q, Options: opts})
			ns = append(ns, float64(time.Since(t0))/windowSize)
			if err != nil {
				return err
			}
			p.check(res.Mismatches == 0 && res.Tuples == windowSize, "%s: run %d disagrees with the query", kind.name, i)
		}
		p.set(kind.name, median(ns), "ns")
	}
	allocs, _ = allocsOf(p.calls(callsExecKind), func(i int) {
		q := known[i%len(known)]
		//acqlint:ignore errdrop the same call was checked in the timed loop above; only its allocations matter here
		_, _ = exec.Execute(ctx, exec.Request{Schema: p.w.s, Plan: plans[q], Query: seq.pool[q].q,
			Options: exec.Options{Source: exec.NewTableSource(tbl, 0)}})
	})
	p.set("exec.allocs_per_run", allocs, "count")
	return nil
}

// ingestRefresh: an ingest batch, a forced refresh with the pool cached,
// and the window's cost per pushed row.
func (p *layerPass) ingestRefresh(ctx context.Context) (err error) {
	seq, chk, tr := p.sequenceOf("ingest_refresh")
	srv, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(srv)) }()
	out := newSink()
	batch := 0
	send := func(name, path string, body []byte, i int) error {
		httpReq, err := post(ctx, path, body)
		if err != nil {
			return err
		}
		sp := tr.begin(name, noParent, i)
		out.serve(srv, httpReq)
		tr.end(sp)
		p.check(out.status == http.StatusOK, "%s %d in process: status %d: %s", name, i, out.status, out.buf.Bytes())
		return nil
	}
	for i, n := 0, p.calls(callsRefresh); i < n; i++ {
		// Each round plans the pool at the current epoch, ingests its share
		// of the batches, and forces the refresh that purges those plans.
		if err := p.warmPool(ctx, srv, out, chk, seq); err != nil {
			return err
		}
		for k, per := 0, p.calls(callsIngest)/n+1; k < per; k++ {
			if err := send("serve.ingest_batch", "/v1/ingest", p.w.ingestBody(batch), batch); err != nil {
				return err
			}
			batch++
		}
		if err := send("serve.refresh", "/v1/refresh", []byte(`{"force":true}`), i); err != nil {
			return err
		}
	}
	self := selfTimes(tr.spans)
	p.set("serve.ingest_batch_us", selfMedian(self, "serve.ingest_batch")/1e3, "us")
	p.set("serve.refresh_ms", selfMedian(self, "serve.refresh")/1e6, "ms")

	win, err := stream.NewWindow(p.w.s, windowSize)
	if err != nil {
		return err
	}
	rows := make([][]schema.Value, windowSize)
	for r := range rows {
		rows[r] = p.w.stream.Row(r, nil)
	}
	var ns []float64
	for i, n := 0, p.calls(callsExecKind); i < n; i++ {
		t0 := time.Now()
		for _, row := range rows {
			win.Push(row)
		}
		ns = append(ns, float64(time.Since(t0))/windowSize)
	}
	p.set("stream.push_row_ns", median(ns), "ns")
	return nil
}

// restrictHist conditions a distribution on one predicate of query i's
// and reads every attribute's histogram under it: the step the greedy
// planner repeats for every candidate split.
func restrictHist(s *schema.Schema, d stats.Dist, q query.Query, i int) {
	pr := q.Preds[i%len(q.Preds)]
	c := d.Root().RestrictRange(pr.Attr, pr.R)
	for a := 0; a < s.NumAttrs(); a++ {
		c.Hist(a)
	}
}

// statistics: the primitives of the empirical counts the default
// planner spends its time in.
func (p *layerPass) statistics(context.Context) error {
	seq, _, _ := p.sequenceOf("plan_miss")
	dist := stats.NewEmpirical(p.w.tbl)
	n := p.calls(callsStats)
	var restrictUS, jointUS []float64
	for i := 0; i < n; i++ {
		q := seq.at(i % p.calls(callsMiss)).q
		t0 := time.Now()
		restrictHist(p.w.s, dist, q, i)
		restrictUS = append(restrictUS, float64(time.Since(t0))/1e3)
		t0 = time.Now()
		stats.PredMaskJoint(dist.Root(), q)
		jointUS = append(jointUS, float64(time.Since(t0))/1e3)
	}
	p.set("stats.restrict_hist_us", median(restrictUS), "us")
	p.set("stats.pred_mask_joint_us", median(jointUS), "us")
	allocs, _ := allocsOf(p.calls(callsFast), func(i int) {
		restrictHist(p.w.s, dist, seq.at(i%p.calls(callsMiss)).q, i)
	})
	p.set("stats.restrict_allocs", allocs, "count")
	return nil
}

// models: fitting the two graphical models and the same restriction
// step on each.
func (p *layerPass) models(context.Context) error {
	seq, _, _ := p.sequenceOf("plan_miss")
	for _, m := range []struct{ name, fit, restrict string }{
		{model.NameBN, "model.fit_bn_ms", "model.bn_restrict_hist_us"},
		{model.NameChowLiu, "model.fit_chowliu_ms", "model.chowliu_restrict_hist_us"},
	} {
		var fitMS, restrictUS []float64
		var dist stats.Dist
		for i, n := 0, p.calls(callsFit); i < n; i++ {
			t0 := time.Now()
			d, err := model.Fit(m.name, p.w.tbl, model.Opts{})
			fitMS = append(fitMS, float64(time.Since(t0))/1e6)
			if err != nil {
				return err
			}
			dist = d
		}
		for i, n := 0, p.calls(callsModel); i < n; i++ {
			q := seq.at(i % p.calls(callsMiss)).q
			t0 := time.Now()
			restrictHist(p.w.s, dist, q, i)
			restrictUS = append(restrictUS, float64(time.Since(t0))/1e3)
		}
		p.set(m.fit, median(fitMS), "ms")
		p.set(m.restrict, median(restrictUS), "us")
	}
	return nil
}

// exhaustive: the optimal search at one worker and at conns workers, on
// the Garden-11 case of the repository's BenchmarkPlanParallel cut down
// to three predicates. No workload runs this planner (at service domain
// sizes it meets the 2 s deadline), so these move no end-to-end metric.
func (p *layerPass) exhaustive(ctx context.Context) error {
	cfg := datagen.DefaultGardenConfig(11)
	cfg.Rows = 6000
	train, _ := datagen.Garden(cfg).Split(0.6)
	s := train.Schema()
	qcfg := workload.DefaultGardenQueryConfig(11)
	qcfg.Count = 1
	q, err := query.NewQuery(s, workload.GardenQueries(train, qcfg)[0].Preds[:3]...)
	if err != nil {
		return err
	}
	r := make([]int, s.NumAttrs())
	r[0] = 4 // time drives the correlations
	for _, pr := range q.Preds {
		r[pr.Attr] = 4
	}
	spsf, err := opt.UniformSPSF(s, r)
	if err != nil {
		return err
	}
	dist := stats.NewEmpirical(train)
	var encoded [][]byte
	var ms []float64
	for _, workers := range []int{1, conns} {
		ex := opt.Exhaustive{SPSF: spsf, Budget: 50_000_000, Parallelism: workers}
		t0 := time.Now()
		node, _, err := ex.Plan(ctx, dist, q)
		ms = append(ms, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		encoded = append(encoded, plan.Encode(node))
	}
	p.check(bytes.Equal(encoded[0], encoded[1]), "exhaustive search: the plan at %d workers differs from the plan at 1", conns)
	p.set("opt.exhaustive_ms", ms[0], "ms")
	p.set("opt.exhaustive_par_ms", ms[1], "ms")
	p.set("opt.exhaustive_par_ratio", ms[1]/ms[0], "ratio")
	return nil
}

// shardOwner: the rendezvous hash a cluster node evaluates for every
// request, over three alive members.
func (p *layerPass) shardOwner(ctx context.Context) (err error) {
	seq, _, tr := p.sequenceOf("cluster3_hit")
	local, err := p.newServer()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, shutdown(local)) }()
	members := make([]*cluster.Node, 3)
	servers := make([]*httptest.Server, len(members))
	urls := make([]string, len(members))
	for i := range members {
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { members[i].ServeHTTP(w, r) }))
		defer servers[i].Close()
		urls[i] = servers[i].URL
	}
	for i := range members {
		members[i], err = cluster.New(cluster.Config{Self: urls[i], Peers: urls, Now: time.Now, Client: servers[i].Client(), Local: local})
		if err != nil {
			return err
		}
	}
	alive := members[0].GossipOnce(ctx)
	p.check(alive == len(members)-1, "in-process cluster: %d of %d peers answered the join", alive, len(members)-1)
	keys := make([]string, len(seq.pool))
	for i, req := range seq.pool {
		keys[i] = req.q.Key()
	}
	remote := 0
	for i, n := 0, p.calls(callsOwner); i < n; i++ {
		sp := tr.begin("cluster.Node.Owner x"+fmt.Sprint(ownerBatch), noParent, i)
		for k := 0; k < ownerBatch; k++ {
			if _, self := members[0].Owner(keys[k%len(keys)]); !self {
				remote++
			}
		}
		tr.end(sp)
	}
	p.check(remote > 0, "in-process cluster: node 0 owns every key, so its peers are not in the hash")
	p.set("cluster.owner_ns", selfMedian(selfTimes(tr.spans), "cluster.Node.Owner x"+fmt.Sprint(ownerBatch))/ownerBatch, "ns")
	return nil
}
