package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acqp/internal/plan"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// testSchema is a correlated 4-attribute sensor world: hour is cheap and
// drives temp and light, so conditional plans beat naive orderings.
func testSchema() *schema.Schema {
	return schema.New(
		schema.Attribute{Name: "hour", K: 24, Cost: 1},
		schema.Attribute{Name: "temp", K: 16, Cost: 50},
		schema.Attribute{Name: "light", K: 16, Cost: 100},
		schema.Attribute{Name: "humid", K: 16, Cost: 30},
	)
}

// testHistory generates a stationary correlated dataset: temp follows the
// hour, light follows day/night, humid is noise.
func testHistory(s *schema.Schema, rows int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New(s, rows)
	for i := 0; i < rows; i++ {
		h := i % 24
		temp := h/2 + rng.Intn(5)
		if temp > 15 {
			temp = 15
		}
		light := rng.Intn(4)
		if h >= 6 && h < 18 {
			light = 12 + rng.Intn(4)
		}
		tbl.MustAppendRow([]schema.Value{
			schema.Value(h), schema.Value(temp), schema.Value(light), schema.Value(rng.Intn(16)),
		})
	}
	return tbl
}

func newTestServer(t *testing.T, mod func(*Config)) *Server {
	t.Helper()
	s := testSchema()
	cfg := Config{Schema: s, History: testHistory(s, 2000, 42)}
	if mod != nil {
		mod(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func shutdownServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeResp[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

// workload16 is the 16-query test workload: syntactically distinct
// requests covering 9 distinct canonical queries.
var workload16 = []string{
	"SELECT * WHERE temp > 7",
	"SELECT * WHERE 8 <= temp <= 15",
	"SELECT * WHERE temp >= 8",
	"SELECT * WHERE light < 4 AND hour <= 11",
	"SELECT * WHERE hour < 12 AND light <= 3",
	"SELECT * WHERE temp BETWEEN 4 AND 11",
	"SELECT * WHERE 4 <= temp <= 11",
	"SELECT * WHERE temp >= 4 AND temp <= 11",
	"SELECT * WHERE NOT (light BETWEEN 4 AND 11)",
	"SELECT * WHERE NOT (4 <= light <= 11)",
	"SELECT * WHERE humid = 5",
	"SELECT * WHERE hour >= 18 AND temp > 9",
	"SELECT * WHERE light > 11 AND humid < 8",
	"SELECT * WHERE temp <= 3 AND hour BETWEEN 0 AND 5",
	"SELECT * WHERE hour <= 5 AND temp < 4",
	"SELECT temp WHERE temp > 0 AND temp <= 15",
}

const workload16Distinct = 9

// TestConcurrentWorkload is the headline acceptance test: 64 concurrent
// clients each issue the 16-query workload; the cache plus singleflight
// must hold planner invocations to exactly one per distinct canonical
// query, the hit rate must clear 50%, and shutdown must not leak
// goroutines.
func TestConcurrentWorkload(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newTestServer(t, func(c *Config) {
		// Provision the pool for the workload's 9 simultaneous distinct
		// queries so admission control (tested separately) never triggers.
		c.Workers = 4
		c.QueueDepth = 32
	})

	const clients = 64
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			order := rng.Perm(len(workload16))
			for _, qi := range order {
				w := postJSON(t, srv, "/v1/plan", planRequest{SQL: workload16[qi]})
				if w.Code != http.StatusOK {
					t.Logf("query %q: status %d: %s", workload16[qi], w.Code, w.Body.String())
					failures.Add(1)
					continue
				}
				var resp planResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					failures.Add(1)
					continue
				}
				if resp.Plan == "" || resp.ExpectedCost <= 0 || resp.Key == "" {
					t.Logf("query %q: malformed response %s", workload16[qi], w.Body.String())
					failures.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Errorf("%d requests failed or returned malformed plans", n)
	}
	if calls := srv.metrics.plannerCalls.Load(); calls != workload16Distinct {
		t.Errorf("planner invoked %d times, want exactly %d (one per distinct canonical query)",
			calls, workload16Distinct)
	}
	if hr := srv.metrics.hitRate(); hr <= 0.5 {
		t.Errorf("cache hit rate %.3f, want > 0.5", hr)
	}
	shutdownServer(t, srv)
	checkNoGoroutineLeak(t, before)
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus scheduler slack) or times out.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak after Shutdown: %d before, %d after", before, n)
}

func TestCanonicalQueriesShareCacheEntries(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	first := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}))
	if first.Cached {
		t.Error("first request reported cached")
	}
	second := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE 8 <= temp <= 15"}))
	if !second.Cached {
		t.Error("canonically-equal request missed the cache")
	}
	if first.Key != second.Key || first.Plan != second.Plan {
		t.Errorf("equivalent queries got different keys/plans: %q vs %q", first.Key, second.Key)
	}
	if calls := srv.metrics.plannerCalls.Load(); calls != 1 {
		t.Errorf("planner ran %d times, want 1", calls)
	}
}

func TestTrivialAndErrorResponses(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	// Unsatisfiable: constant-false plan, no planner run.
	w := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp < 4 AND temp > 11"})
	if w.Code != http.StatusOK {
		t.Fatalf("unsatisfiable: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResp[planResponse](t, w)
	if resp.ExpectedCost != 0 || resp.Splits != 0 {
		t.Errorf("unsatisfiable plan not trivial: %+v", resp)
	}
	// No WHERE clause: constant-true plan.
	w = postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT temp"})
	if w.Code != http.StatusOK {
		t.Fatalf("no-where: status %d: %s", w.Code, w.Body.String())
	}
	// Disjunction: 422.
	w = postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7 OR light < 4"})
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("disjunction: status %d, want 422", w.Code)
	}
	// Parse error: 400.
	w = postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELEKT nothing"})
	if w.Code != http.StatusBadRequest {
		t.Errorf("parse error: status %d, want 400", w.Code)
	}
	// Unknown planner: 400.
	w = postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7", Planner: "quantum"})
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown planner: status %d, want 400", w.Code)
	}
	// Bad JSON body: 400.
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad body: status %d, want 400", rec.Code)
	}
	if calls := srv.metrics.plannerCalls.Load(); calls != 0 {
		t.Errorf("planner ran %d times on trivial/error requests, want 0", calls)
	}
}

// TestExhaustiveDeadlineDegrades covers the acceptance criterion: a /plan
// with a 10ms deadline on an exhaustive-sized query must return promptly
// with a valid sequential fallback plan, marked degraded and not cached.
func TestExhaustiveDeadlineDegrades(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.ExhaustiveBudget = 1 << 30 // force the deadline, not the budget, to fire
	})
	defer shutdownServer(t, srv)

	req := planRequest{
		SQL:         "SELECT * WHERE temp BETWEEN 4 AND 11 AND light > 7 AND humid < 9 AND hour >= 6",
		Planner:     "exhaustive",
		SplitPoints: 16,
		TimeoutMS:   10,
	}
	start := time.Now()
	w := postJSON(t, srv, "/v1/plan", req)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResp[planResponse](t, w)
	if !resp.Degraded {
		t.Skip("exhaustive search finished within 10ms; nothing to observe")
	}
	// The response must arrive near the deadline, not after a full search:
	// the bound is generous for CI noise but far below an uncancelled run.
	if elapsed > 250*time.Millisecond {
		t.Errorf("degraded response took %v, want near the 10ms deadline", elapsed)
	}
	if resp.Splits != 0 {
		t.Errorf("sequential fallback has %d splits, want 0", resp.Splits)
	}
	// The fallback plan must be a valid, decodable plan.
	raw, err := base64.StdEncoding.DecodeString(resp.PlanB64)
	if err != nil {
		t.Fatal(err)
	}
	node, err := plan.Decode(testSchema(), raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Validate(testSchema()); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
	}
	// Degraded outcomes are not cached: a repeat with a long deadline must
	// run the planner afresh and come back undegraded.
	req.TimeoutMS = 0
	resp2 := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", req))
	if resp2.Cached {
		t.Error("degraded outcome was served from the cache")
	}
}

func TestEpochInvalidationAfterDrift(t *testing.T) {
	// Window capacity covers the whole history, so the seeded window is the
	// exact training multiset and the initial drift is exactly zero.
	srv := newTestServer(t, func(c *Config) {
		c.WindowSize = 2048
	})
	defer shutdownServer(t, srv)

	first := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}))
	if first.Epoch != 1 || first.Cached {
		t.Fatalf("first plan: epoch %d cached %v", first.Epoch, first.Cached)
	}
	if again := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"})); !again.Cached {
		t.Fatal("repeat plan missed the cache")
	}

	// An unforced refresh with a stationary window must not bump the epoch.
	noop := decodeResp[refreshResponse](t, postJSON(t, srv, "/v1/refresh", refreshRequest{}))
	if noop.Refreshed || noop.Epoch != 1 {
		t.Fatalf("stationary refresh bumped the epoch: %+v", noop)
	}

	// Ingest a full window of drifted tuples: light inverted, temp high.
	rng := rand.New(rand.NewSource(7))
	rows := make([][]int, 2048)
	for i := range rows {
		rows[i] = []int{rng.Intn(24), 12 + rng.Intn(4), rng.Intn(4), rng.Intn(16)}
	}
	ing := decodeResp[ingestResponse](t, postJSON(t, srv, "/v1/ingest", ingestRequest{Rows: rows}))
	if ing.Accepted != 2048 {
		t.Fatalf("ingest accepted %d rows, want 2048", ing.Accepted)
	}

	ref := decodeResp[refreshResponse](t, postJSON(t, srv, "/v1/refresh", refreshRequest{}))
	if !ref.Refreshed || ref.Epoch != 2 {
		t.Fatalf("drifted refresh did not bump the epoch: %+v", ref)
	}
	if ref.Purged < 1 {
		t.Errorf("refresh purged %d cache entries, want >= 1", ref.Purged)
	}
	if ref.Drift <= srv.cfg.DriftThreshold {
		t.Errorf("reported drift %.3f not above threshold %.3f", ref.Drift, srv.cfg.DriftThreshold)
	}

	// The same query now plans afresh against the new epoch.
	fresh := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}))
	if fresh.Cached || fresh.Epoch != 2 {
		t.Errorf("post-refresh plan: cached %v epoch %d, want fresh at epoch 2", fresh.Cached, fresh.Epoch)
	}
}

func TestIngestValidation(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	w := postJSON(t, srv, "/v1/ingest", ingestRequest{Rows: [][]int{{1, 2, 3}}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("short row: status %d, want 400", w.Code)
	}
	w = postJSON(t, srv, "/v1/ingest", ingestRequest{Rows: [][]int{{1, 2, 3, 99}}})
	if w.Code != http.StatusBadRequest {
		t.Errorf("out-of-domain value: status %d, want 400", w.Code)
	}
	if got := srv.metrics.ingested.Load(); got != 0 {
		t.Errorf("invalid batches counted as ingested: %d", got)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	w := postJSON(t, srv, "/v1/execute", planRequest{SQL: "SELECT * WHERE temp > 7 AND light > 11"})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeResp[executeResponse](t, w)
	if resp.Tuples != 2000 {
		t.Errorf("executed over %d tuples, want the full 2000-row window", resp.Tuples)
	}
	if resp.Mismatches != 0 {
		t.Errorf("plan mismatched ground truth on %d tuples", resp.Mismatches)
	}
	if resp.MeanCost <= 0 || resp.MeanCost > resp.NaiveCost+1e-9 {
		t.Errorf("mean cost %.3f vs naive %.3f", resp.MeanCost, resp.NaiveCost)
	}
	if resp.Selected == 0 {
		t.Error("query selected nothing; workload should match daytime tuples")
	}
}

func TestShedWhenQueueFull(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = -1 // no queue: admit only when the worker is idle
	})
	defer shutdownServer(t, srv)

	// Occupy the only worker with a job we control. submit on an
	// unbuffered queue succeeds only once a worker is receiving, so after
	// this returns the pool is saturated deterministically.
	release := make(chan struct{})
	for !srv.submit(func() { <-release }) {
		time.Sleep(time.Millisecond)
	}
	defer close(release)

	w := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated pool: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if shed := srv.metrics.shed.Load(); shed != 1 {
		t.Errorf("shed counter %d, want 1", shed)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("503 response missing Retry-After")
	}
}

func TestStatsMetricsHealthz(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	if w := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}); w.Code != http.StatusOK {
		t.Fatalf("plan failed: %s", w.Body.String())
	}
	st := decodeResp[statsResponse](t, getPath(t, srv, "/v1/stats"))
	if len(st.Schema) != 4 || st.Schema[1].Name != "temp" || st.Epoch != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheEntries != 1 || st.PlannerCalls != 1 {
		t.Errorf("stats cache=%d calls=%d, want 1/1", st.CacheEntries, st.PlannerCalls)
	}
	m := getPath(t, srv, "/metrics")
	if m.Code != http.StatusOK {
		t.Fatalf("metrics: %d", m.Code)
	}
	for _, want := range []string{"acqserved_cache_misses 1", "acqserved_planner_calls 1", "acqserved_stats_epoch 1"} {
		if !bytes.Contains(m.Body.Bytes(), []byte(want)) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	h := getPath(t, srv, "/healthz")
	if h.Code != http.StatusOK {
		t.Errorf("healthz: %d", h.Code)
	}
}

func TestLRUCacheEvictionAndRecency(t *testing.T) {
	c := newLRUCache(2)
	out := planOutcome{rendered: "x"}
	c.add("a", 1, out)
	c.add("b", 1, out)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// a is now most recent; adding c must evict b.
	c.add("c", 1, out)
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing after insert")
	}
	if n, max := c.lens(); n != 2 || max != 2 {
		t.Errorf("lens = %d/%d, want 2/2", n, max)
	}
	if purged := c.invalidateBefore(2); purged != 2 {
		t.Errorf("invalidateBefore purged %d, want 2", purged)
	}
	if n, _ := c.lens(); n != 0 {
		t.Errorf("cache not empty after invalidation: %d", n)
	}
}

func TestCacheEvictionViaServer(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.CacheSize = 2 })
	defer shutdownServer(t, srv)

	queries := []string{
		"SELECT * WHERE temp > 7",
		"SELECT * WHERE light < 4",
		"SELECT * WHERE humid = 5",
	}
	for _, q := range queries {
		if w := postJSON(t, srv, "/v1/plan", planRequest{SQL: q}); w.Code != http.StatusOK {
			t.Fatalf("plan %q: %s", q, w.Body.String())
		}
	}
	// The first query was evicted by the third; replanning it is a miss.
	resp := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: queries[0]}))
	if resp.Cached {
		t.Error("evicted entry reported as cache hit")
	}
	if calls := srv.metrics.plannerCalls.Load(); calls != 4 {
		t.Errorf("planner calls %d, want 4 (3 distinct + 1 re-plan after eviction)", calls)
	}
}

func TestFlightGroupCollapsesConcurrentCalls(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([]planOutcome, waiters)
	sharedCount := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err, shared := g.do(context.Background(), "k", func() (planOutcome, error) {
				calls.Add(1)
				<-release
				return planOutcome{rendered: "r", cost: 7}, nil
			})
			if err != nil {
				t.Errorf("do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = out
		}(i)
	}
	// Let every goroutine reach the flight before releasing the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != waiters-1 {
		t.Errorf("%d shared results, want %d", n, waiters-1)
	}
	for i, r := range results {
		if r.rendered != "r" || r.cost != 7 {
			t.Errorf("waiter %d got %+v", i, r)
		}
	}
}

func TestShutdownDuringPlanning(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newTestServer(t, func(c *Config) {
		c.ExhaustiveBudget = 1 << 30
		c.DefaultTimeout = time.Minute
	})
	// Start a slow exhaustive plan, then shut down mid-search.
	done := make(chan int, 1)
	go func() {
		w := postJSON(t, srv, "/v1/plan", planRequest{
			SQL:         "SELECT * WHERE temp BETWEEN 4 AND 11 AND light > 7 AND humid < 9 AND hour >= 6",
			Planner:     "exhaustive",
			SplitPoints: 16,
		})
		done <- w.Code
	}()
	time.Sleep(30 * time.Millisecond)
	shutdownServer(t, srv)
	select {
	case code := <-done:
		// Shutdown surfaces as 503 unless the search won the race.
		if code != http.StatusServiceUnavailable && code != http.StatusOK {
			t.Errorf("in-flight request finished with %d", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed after Shutdown")
	}
	checkNoGoroutineLeak(t, before)
}
