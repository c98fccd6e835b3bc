package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"acqp"
	"acqp/internal/exec"
	"acqp/internal/model"
	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/sql"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

// maxBodyBytes bounds request bodies; planning requests are tiny and
// ingest batches are capped well below this.
const maxBodyBytes = 1 << 20

// planRequest is the /plan (and /execute) request body.
type planRequest struct {
	// SQL is a TinyDB-style statement, e.g.
	// "SELECT * WHERE 10 <= temp <= 20 AND light > 100".
	SQL string `json:"sql"`
	// Planner selects the algorithm: "greedy" (default), "exhaustive",
	// "corrseq", or "naive".
	Planner string `json:"planner,omitempty"`
	// Model selects the statistics backend planning (and fault imputation
	// on /execute) runs against: "empirical" (the default — raw per-epoch
	// counts), "independent", "chowliu", or "bn". Fitted backends are
	// built once per epoch and shared across requests.
	Model string `json:"model,omitempty"`
	// MaxSplits and SplitPoints override the server's greedy defaults.
	MaxSplits   int `json:"max_splits,omitempty"`
	SplitPoints int `json:"split_points,omitempty"`
	// TimeoutMS shortens (never extends) the server's planning deadline.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Parallelism sets the planner's worker count for this request,
	// clamped to GOMAXPROCS; zero means the server default. The resulting
	// plan is identical at every setting — only planning latency changes.
	Parallelism int `json:"parallelism,omitempty"`
	// Strict disables the service's graceful fallbacks: an unsatisfiable
	// query is a 422 error instead of a constant-false plan, and an
	// exhaustive search that exhausts its budget or deadline is a 504
	// instead of degrading to a sequential plan.
	Strict bool `json:"strict,omitempty"`
	// NoCache bypasses the plan cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace asks for the planner's phase timings and search counters in
	// the response (and, on /execute, the per-node execution profile).
	// It never affects which plan is returned or whether it is cached.
	Trace bool `json:"trace,omitempty"`
	// Faults injects deterministic acquisition faults for what-if
	// analysis. Requests carrying it may read the cache but never store
	// into it, and /execute runs the fault-aware executor.
	Faults *faultSpec `json:"faults,omitempty"`
	// Source selects what /execute runs the plan over: "table" (default)
	// materializes the statistics window into a table first — the
	// historical behavior — while "stream_window" streams the window's
	// tuples straight into the executor in bounded batches. Results are
	// identical; /plan ignores the field.
	Source string `json:"source,omitempty"`
}

// planResponse is the /plan response body.
type planResponse struct {
	Plan         string  `json:"plan"`
	PlanB64      string  `json:"plan_b64"`
	ExpectedCost float64 `json:"expected_cost"`
	NaiveCost    float64 `json:"naive_cost"`
	Splits       int     `json:"splits"`
	SizeBytes    int     `json:"size_bytes"`
	Cached       bool    `json:"cached"`
	Shared       bool    `json:"shared,omitempty"`
	Degraded     bool    `json:"degraded,omitempty"`
	Epoch        uint64  `json:"epoch"`
	Key          string  `json:"key"`
	PlanMS       float64 `json:"plan_ms"`
	// Model echoes the statistics backend the plan was built against. It
	// is omitted when the request did not ask for one and the server runs
	// the empirical default, keeping legacy responses byte-identical. It
	// must serialize before ElapsedMS: the fast path (fast.go) splices the
	// request ID and elapsed time into a pre-serialized blob at its
	// `,"elapsed_ms":0` member, after which only Node may follow.
	Model     string  `json:"model,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	RequestID string  `json:"request_id,omitempty"`
	// Node is the advertised URL of the node that did the planning work
	// and Forwarded reports an internal shard-owner hop; both are empty
	// when the server runs standalone.
	Node      string `json:"node,omitempty"`
	Forwarded bool   `json:"forwarded,omitempty"`
	// Trace is present when the request set trace=true and a planner run
	// actually happened (cache hits report no trace: no planner ran).
	Trace *trace.Snapshot `json:"trace,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return // client went away mid-write; nothing useful to do
	}
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeRequest parses a JSON body strictly (unknown fields rejected).
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// decodeRequestRaw is decodeRequest for handlers that may forward the
// request to a peer: it returns the raw body alongside the strict
// parse, so the forwarded hop carries the client's bytes verbatim.
func decodeRequestRaw(w http.ResponseWriter, r *http.Request, v any) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return nil, err
	}
	return raw, nil
}

// writeDecodeError maps a request-body decoding failure to a status: 413
// when the MaxBytesReader limit tripped, 400 for malformed JSON.
func writeDecodeError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "bad request body: %v", err)
}

// canonicalize parses the request SQL and reduces its WHERE clause to the
// canonical conjunction. The boolean results distinguish the trivial
// cases: trivial=true means the answer is the constant trivialResult. In
// strict mode an unsatisfiable WHERE clause is a typed 422 error rather
// than a constant-false plan.
func (s *Server) canonicalize(w http.ResponseWriter, req planRequest, strict bool) (canon query.Query, trivial, trivialResult bool, ok bool) {
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing sql field")
		return query.Query{}, false, false, false
	}
	st, err := sql.Parse(s.s, req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return query.Query{}, false, false, false
	}
	preds, conj := st.Predicates()
	if !conj {
		writeError(w, http.StatusUnprocessableEntity,
			"WHERE clause is not a conjunction of range predicates; the planning service handles conjunctive queries only")
		return query.Query{}, false, false, false
	}
	canon, err = query.Canonical(s.s, preds)
	switch {
	case errors.Is(err, query.ErrUnsatisfiable):
		if strict {
			writeError(w, http.StatusUnprocessableEntity, "%v", acqp.ErrUnsatisfiable)
			return query.Query{}, false, false, false
		}
		return query.Query{}, true, false, true
	case errors.Is(err, query.ErrNotSingleRange):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return query.Query{}, false, false, false
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return query.Query{}, false, false, false
	}
	if len(canon.Preds) == 0 {
		return query.Query{}, true, true, true
	}
	if n := len(canon.Preds); n > stats.MaxJointPreds {
		// Joint predicate statistics pack one predicate per bit of a
		// uint32 mask; past that the stats layer panics. Reject up front
		// with the facade's typed-request verdict instead of a 500.
		writeError(w, http.StatusUnprocessableEntity,
			"%v: query has %d predicates, planning supports at most %d", acqp.ErrInvalidRequest, n, stats.MaxJointPreds)
		return query.Query{}, false, false, false
	}
	return canon, false, false, true
}

// echoModel returns the model name a response reports: the resolved
// backend when the client selected one explicitly or the server's default
// is non-empirical; empty — the field is omitted — otherwise, keeping
// default-configuration responses byte-identical to prior releases.
func (s *Server) echoModel(req planRequest, p plannerParams) string {
	if req.Model != "" || p.model != model.NameEmpirical {
		return p.model
	}
	return ""
}

// handlePlan serves POST /v1/plan.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	count(&s.metrics.inFlight, 1)
	defer s.metrics.inFlight.Add(-1)
	start := time.Now()

	var req planRequest
	raw, err := decodeRequestRaw(w, r, &req)
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	p, err := s.resolveParams(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon, trivial, trivialResult, ok := s.canonicalize(w, req, p.strict)
	if !ok {
		return
	}
	if req.Faults != nil {
		// Validate the what-if section even though /plan does not execute:
		// clients iterating on a faults spec get errors at plan time. The
		// imputation model is the request's selected backend.
		dist, _, derr := s.modelSnapshot(p.model)
		if derr != nil {
			writePlanError(w, fmt.Errorf("serve: fitting model %q: %w", p.model, derr))
			return
		}
		if _, err := s.buildFaultConfig(req.Faults, dist); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var out planOutcome
	var cached, shared, forwarded bool
	var servedBy string
	if trivial {
		// Constant-answer plans are free; no node forwards them.
		out = s.trivialOutcome(trivialResult, s.Epoch())
		servedBy = s.clusterSelf
	} else {
		out, cached, shared, servedBy, forwarded, err = s.planRouted(r, canon, p, req, raw)
		if err != nil {
			writePlanError(w, err)
			return
		}
	}
	s.metrics.recordRequest(epPlan, requestOutcome(out.degraded, cached || shared), time.Since(start))
	resp := planResponse{
		Plan:         out.rendered,
		PlanB64:      out.encoded,
		ExpectedCost: out.cost,
		NaiveCost:    out.naiveCost,
		Splits:       out.splits,
		SizeBytes:    out.sizeBytes,
		Cached:       cached,
		Shared:       shared,
		Degraded:     out.degraded,
		Epoch:        out.epoch,
		Key:          canon.Key(),
		PlanMS:       out.planMS,
		Model:        s.echoModel(req, p),
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
		RequestID:    requestIDFrom(r.Context()),
		Node:         servedBy,
		Forwarded:    forwarded,
		Trace:        out.traceSnap,
	}
	writeJSON(w, http.StatusOK, resp)
	s.maybeInstallFast(raw, req, p, canon, resp)
}

// requestOutcome classifies one answered request for the per-endpoint
// latency rings: degradation dominates, then hit vs miss.
func requestOutcome(degraded, hit bool) int {
	switch {
	case degraded:
		return outcomeDegraded
	case hit:
		return outcomeHit
	default:
		return outcomeMiss
	}
}

func writePlanError(w http.ResponseWriter, err error) {
	var re *remoteError
	switch {
	case errors.As(err, &re):
		// A shard owner answered with an error; relay its verdict (and
		// backpressure hint) untouched.
		if re.retryAfter != "" {
			w.Header().Set("Retry-After", re.retryAfter)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(re.status)
		_, _ = w.Write(re.body)
	case errors.Is(err, errShed):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errShutdown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, acqp.ErrBudgetExceeded), errors.Is(err, context.DeadlineExceeded):
		// Strict requests surface budget/deadline exhaustion instead of
		// degrading; the search ran out of time upstream of the client.
		writeError(w, http.StatusGatewayTimeout, "%v", err)
	case errors.Is(err, acqp.ErrUnsatisfiable):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// executeResponse is the /execute response body: the plan summary plus
// metered execution over the current statistics window.
type executeResponse struct {
	planResponse
	Tuples       int     `json:"tuples"`
	Selected     int     `json:"selected"`
	MeanCost     float64 `json:"mean_cost"`
	MaxCost      float64 `json:"max_cost"`
	Mismatches   int     `json:"mismatches"`
	ExecuteMS    float64 `json:"execute_ms"`
	WindowTuples int     `json:"window_tuples"`
	// Faults reports the fault-aware execution when the request carried a
	// faults section.
	Faults *faultReport `json:"faults,omitempty"`
	// ExecTrace is the per-node cost heatmap and predicted-vs-observed
	// drift, present when the request set trace=true.
	ExecTrace *execTraceReport `json:"exec_trace,omitempty"`
}

// execTraceNode is one plan node's observed execution profile. IDs are
// pre-order indices into the returned plan (see plan.NodeIDs); they are
// stable across runs of the same plan, not across different plans.
type execTraceNode struct {
	ID     int     `json:"id"`
	Label  string  `json:"label"`
	Visits int64   `json:"visits"`
	Cost   float64 `json:"cost"`
}

// execTraceReport is the "exec_trace" section of an /execute response.
type execTraceReport struct {
	Nodes []execTraceNode `json:"nodes"`
	// ObservedTotal includes charges that have no node attribution
	// (replanned residual plans under fault injection), so it can exceed
	// the sum over Nodes but never fall below it.
	ObservedTotal float64 `json:"observed_total_cost"`
	ObservedMean  float64 `json:"observed_mean_cost"`
	// PredictedMean is the planner's expected per-tuple cost under the
	// statistics the plan was built on; DriftPct is the relative gap.
	PredictedMean float64 `json:"predicted_mean_cost"`
	DriftPct      float64 `json:"drift_pct"`
}

// execTraceFor renders an execution profile against its plan.
func (s *Server) execTraceFor(node *plan.Node, prof *trace.ExecProfile, predictedMean float64) *execTraceReport {
	if prof == nil {
		return nil
	}
	nodes := node.Preorder()
	rep := &execTraceReport{Nodes: make([]execTraceNode, len(nodes)), ObservedTotal: prof.TotalCost, PredictedMean: predictedMean}
	for i, n := range nodes {
		rep.Nodes[i] = execTraceNode{ID: i, Label: plan.NodeLabel(n, s.s.Name), Visits: prof.NodeVisits[i], Cost: prof.NodeCost[i]}
	}
	if prof.Tuples > 0 {
		rep.ObservedMean = prof.TotalCost / float64(prof.Tuples)
	}
	if predictedMean > 0 {
		rep.DriftPct = 100 * (rep.ObservedMean - predictedMean) / predictedMean
	}
	return rep
}

// handleExecute serves POST /v1/execute: plan (through the cache) and run
// the plan over the sliding window's tuples with full acquisition
// metering.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	count(&s.metrics.inFlight, 1)
	defer s.metrics.inFlight.Add(-1)
	start := time.Now()

	var req planRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	p, err := s.resolveParams(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	canon, trivial, trivialResult, ok := s.canonicalize(w, req, p.strict)
	if !ok {
		return
	}
	var faultCfg exec.FaultConfig
	if req.Faults != nil {
		// Imputation fills failed acquisitions from the request's selected
		// statistics backend, so a "bn" run imputes from the Bayes net.
		dist, _, derr := s.modelSnapshot(p.model)
		if derr != nil {
			writePlanError(w, fmt.Errorf("serve: fitting model %q: %w", p.model, derr))
			return
		}
		faultCfg, err = s.buildFaultConfig(req.Faults, dist)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	var out planOutcome
	var cached, shared bool
	if trivial {
		out = s.trivialOutcome(trivialResult, s.Epoch())
	} else {
		// /v1/execute is never routed: it runs the plan this node holds
		// for the key, a copy of the owner's included while that owner
		// still answers for it.
		out, cached, shared, err = s.planCached(r.Context(), canon, p, req.NoCache, req.Faults != nil, true)
		if err != nil {
			writePlanError(w, err)
			return
		}
	}
	var src exec.RowSource
	var windowTuples int
	switch req.Source {
	case "", "table":
		s.wmu.Lock()
		tbl := s.window.Materialize()
		s.wmu.Unlock()
		src = exec.NewTableSource(tbl, 0)
		windowTuples = tbl.NumRows()
	case "stream_window":
		s.wmu.Lock()
		src = s.window.Source(0)
		windowTuples = s.window.Len()
		s.wmu.Unlock()
	default:
		writeError(w, http.StatusBadRequest, "unknown source %q (want table or stream_window)", req.Source)
		return
	}
	execStart := time.Now()
	var prof *trace.ExecProfile
	if p.traced {
		prof = trace.NewExecProfile(len(out.node.Preorder()), s.s.NumAttrs())
	}
	execOpts := exec.Options{Source: src, Profile: prof}
	if req.Faults != nil {
		execOpts.Faults = &faultCfg
	}
	res, xerr := exec.Execute(r.Context(), exec.Request{
		Schema: s.s, Plan: out.node, Query: canon, Options: execOpts,
	})
	if xerr != nil {
		writeError(w, http.StatusInternalServerError, "%v", xerr)
		return
	}
	var report *faultReport
	if req.Faults != nil {
		fs := res.Fault
		report = newFaultReport(req.Faults, faultCfg.Policy, res)
		count(&s.metrics.faultExecutions, 1)
		count(&s.metrics.faultRetries, int64(fs.Retries))
		count(&s.metrics.faultFailures, int64(fs.Failures))
		count(&s.metrics.faultFallbacks, int64(fs.Abstained+fs.Imputed+fs.Replans))
		count(&s.metrics.degradedAnswers, int64(fs.Abstained+fs.FalsePositives+fs.FalseNegatives))
	}
	count(&s.metrics.executed, 1)
	s.metrics.recordRequest(epExecute, requestOutcome(out.degraded, cached || shared), time.Since(start))
	writeJSON(w, http.StatusOK, executeResponse{
		planResponse: planResponse{
			Plan:         out.rendered,
			PlanB64:      out.encoded,
			ExpectedCost: out.cost,
			NaiveCost:    out.naiveCost,
			Splits:       out.splits,
			SizeBytes:    out.sizeBytes,
			Cached:       cached,
			Shared:       shared,
			Degraded:     out.degraded,
			Epoch:        out.epoch,
			Key:          canon.Key(),
			PlanMS:       out.planMS,
			Model:        s.echoModel(req, p),
			ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
			RequestID:    requestIDFrom(r.Context()),
			Trace:        out.traceSnap,
		},
		Tuples:       res.Tuples,
		Selected:     res.Selected,
		MeanCost:     res.MeanCost(),
		MaxCost:      res.MaxCost,
		Mismatches:   res.Mismatches,
		ExecuteMS:    float64(time.Since(execStart)) / float64(time.Millisecond),
		WindowTuples: windowTuples,
		Faults:       report,
		ExecTrace:    s.execTraceFor(out.node, prof, out.cost),
	})
}

// ingestRequest is the /ingest request body: a batch of tuples for the
// statistics window, one value per schema attribute in schema order.
type ingestRequest struct {
	Rows [][]int `json:"rows"`
}

type ingestResponse struct {
	Accepted     int    `json:"accepted"`
	WindowTuples int    `json:"window_tuples"`
	Epoch        uint64 `json:"epoch"`
}

// handleIngest serves POST /v1/ingest.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req ingestRequest
	if err := decodeRequest(w, r, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	na := s.s.NumAttrs()
	row := make([]schema.Value, na)
	// Validate the whole batch before accepting any of it.
	for i, raw := range req.Rows {
		if len(raw) != na {
			writeError(w, http.StatusBadRequest, "row %d has %d values, schema has %d attributes", i, len(raw), na)
			return
		}
		for a, v := range raw {
			if v < 0 || v >= s.s.K(a) {
				writeError(w, http.StatusBadRequest, "row %d: value %d out of domain [0,%d) for %s", i, v, s.s.K(a), s.s.Name(a))
				return
			}
		}
	}
	s.wmu.Lock()
	for _, raw := range req.Rows {
		for a, v := range raw {
			row[a] = schema.Value(v)
		}
		s.window.Push(row)
	}
	n := s.window.Len()
	s.wmu.Unlock()
	count(&s.metrics.ingested, int64(len(req.Rows)))
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: len(req.Rows), WindowTuples: n, Epoch: s.Epoch()})
}

// refreshRequest is the /refresh request body.
type refreshRequest struct {
	// Force bumps the epoch even when the measured drift is below the
	// threshold.
	Force bool `json:"force,omitempty"`
}

type refreshResponse struct {
	Refreshed bool    `json:"refreshed"`
	Drift     float64 `json:"drift"`
	Epoch     uint64  `json:"epoch"`
	Purged    int     `json:"purged"`
}

// handleRefresh serves POST /v1/refresh: an on-demand drift check.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req refreshRequest
	// An empty body is an unforced refresh.
	if err := decodeRequest(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeDecodeError(w, err)
		return
	}
	refreshed, drift, epoch, purged, err := s.Refresh(req.Force)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, refreshResponse{Refreshed: refreshed, Drift: drift, Epoch: epoch, Purged: purged})
}

// statsResponse is the /stats response body.
type statsResponse struct {
	Schema        []attrInfo `json:"schema"`
	Epoch         uint64     `json:"epoch"`
	WindowTuples  int        `json:"window_tuples"`
	HistoryTuples int        `json:"history_tuples"`
	CacheEntries  int        `json:"cache_entries"`
	CacheCapacity int        `json:"cache_capacity"`
	CacheHitRate  float64    `json:"cache_hit_rate"`
	PlannerCalls  int64      `json:"planner_calls"`
	ShedRequests  int64      `json:"shed_requests"`
	UptimeSec     float64    `json:"uptime_sec"`
}

type attrInfo struct {
	Name string  `json:"name"`
	K    int     `json:"k"`
	Cost float64 `json:"cost"`
}

// handleStats serves GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	attrs := make([]attrInfo, s.s.NumAttrs())
	for i := range attrs {
		a := s.s.Attr(i)
		attrs[i] = attrInfo{Name: a.Name, K: a.K, Cost: a.Cost}
	}
	s.wmu.Lock()
	win := s.window.Len()
	s.wmu.Unlock()
	n, max := s.cache.lens()
	writeJSON(w, http.StatusOK, statsResponse{
		Schema:        attrs,
		Epoch:         s.Epoch(),
		WindowTuples:  win,
		HistoryTuples: s.cfg.History.NumRows(),
		CacheEntries:  n,
		CacheCapacity: max,
		CacheHitRate:  s.metrics.hitRate(),
		PlannerCalls:  s.metrics.plannerCalls.Load(),
		ShedRequests:  s.metrics.shed.Load(),
		UptimeSec:     time.Since(s.started).Seconds(),
	})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	n, max := s.cache.lens()
	if err := s.metrics.write(w, s.Epoch(), n, max); err != nil {
		return // client went away mid-write
	}
	if err := s.writeClusterMetrics(w); err != nil {
		return // client went away mid-write
	}
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": s.Epoch()})
}
