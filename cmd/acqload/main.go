// Command acqload drives load against a running acqserved instance: N
// concurrent clients each issue M planning (or execution) requests drawn
// from a seeded random pool of conjunctive queries, then the tool reports
// client-side latency percentiles and the server's cache statistics.
//
// Usage:
//
//	acqload -addr http://127.0.0.1:8077 [-clients 8] [-requests 64] \
//	        [-pool 16] [-seed 1] [-planner greedy] [-execute]
//
// The query pool is generated against the server's own schema (fetched
// from /v1/stats), so acqload needs no schema flag. A pool much smaller than
// clients*requests exercises the plan cache and singleflight; -pool 0
// makes every request distinct (all cache misses).
//
// Against a cluster, -targets takes a comma-separated list of node URLs
// and every request picks a random entry node; -wait-ready polls each
// target's /readyz first, and -cluster-check verifies the cluster
// invariants after the workload: replaying the whole pool through every
// entry node adds zero planner runs (each distinct query was planned
// once cluster-wide and is served from its owner's cache), and a forced
// refresh on one node converges every target to the new statistics
// epoch via gossip. -chaos-report scrapes every target's /metrics after
// the workload and prints per-node and cluster-total resilience
// counters (degraded plans, forward retries, failovers, breaker opens)
// plus the chaos transport's injected-fault counts when a node runs
// with -chaos-seed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acqp/internal/floats"
)

type attrInfo struct {
	Name string `json:"name"`
	K    int    `json:"k"`
}

type statsResponse struct {
	Schema       []attrInfo `json:"schema"`
	Epoch        uint64     `json:"epoch"`
	CacheEntries int        `json:"cache_entries"`
	CacheHitRate float64    `json:"cache_hit_rate"`
	PlannerCalls int64      `json:"planner_calls"`
	ShedRequests int64      `json:"shed_requests"`
}

type planResponse struct {
	ExpectedCost float64 `json:"expected_cost"`
	NaiveCost    float64 `json:"naive_cost"`
	Cached       bool    `json:"cached"`
	Shared       bool    `json:"shared"`
	Degraded     bool    `json:"degraded"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8077", "acqserved base URL")
	clients := flag.Int("clients", 8, "concurrent clients")
	requests := flag.Int("requests", 64, "requests per client")
	pool := flag.Int("pool", 16, "distinct queries in the workload pool (0 = every request distinct)")
	seed := flag.Int64("seed", 1, "workload random seed")
	planner := flag.String("planner", "", "planner to request (empty = server default)")
	timeoutMS := flag.Int("timeout-ms", 0, "per-request planning deadline to send (0 = server default)")
	execute := flag.Bool("execute", false, "POST /v1/execute instead of /v1/plan")
	maxRetries := flag.Int("max-retries", 3, "retries per request when the server sheds load with 503")
	targetsFlag := flag.String("targets", "", "comma-separated acqserved base URLs; each request picks a random entry node (overrides -addr)")
	waitReady := flag.Duration("wait-ready", 0, "poll every target's /readyz until ready, up to this long, before driving load")
	clusterCheck := flag.Bool("cluster-check", false, "after the workload, verify the cluster's single-planner-run and epoch-coherence invariants")
	chaosReport := flag.Bool("chaos-report", false, "after the workload, summarize each target's resilience counters (degraded plans, forward retries, failovers, breaker opens) from /metrics")
	flag.Parse()
	if *clients < 1 || *requests < 1 {
		fatal(fmt.Errorf("need at least one client and one request"))
	}

	targets := []string{strings.TrimSuffix(*addr, "/")}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsFlag, ",") {
			t = strings.TrimSuffix(strings.TrimSpace(t), "/")
			if t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			fatal(fmt.Errorf("-targets lists no URLs"))
		}
	}
	if *waitReady > 0 {
		if err := awaitReady(targets, *waitReady); err != nil {
			fatal(err)
		}
		fmt.Printf("acqload: %d target(s) ready\n", len(targets))
	}

	schema, err := fetchSchema(targets[0])
	if err != nil {
		fatal(err)
	}

	// Pre-generate the query pool from the seed so runs are reproducible.
	rng := rand.New(rand.NewSource(*seed))
	n := *pool
	if n <= 0 {
		n = *clients * *requests
	}
	queries := make([]string, n)
	for i := range queries {
		queries[i] = randomQuery(rng, schema)
	}

	path := "/v1/plan"
	if *execute {
		path = "/v1/execute"
	}
	var (
		wg        sync.WaitGroup
		errs      atomic.Int64
		retries   atomic.Int64
		cached    atomic.Int64
		shared    atomic.Int64
		degraded  atomic.Int64
		nextQuery atomic.Int64 // used only when -pool 0: every request distinct
	)
	lat := make([][]float64, *clients)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go func(id int) {
			defer wg.Done()
			crng := rand.New(rand.NewSource(*seed + int64(id) + 1))
			lat[id] = make([]float64, 0, *requests)
			for r := 0; r < *requests; r++ {
				var q string
				if *pool <= 0 {
					q = queries[nextQuery.Add(1)-1]
				} else {
					q = queries[crng.Intn(len(queries))]
				}
				body, _ := json.Marshal(map[string]any{
					"sql": q, "planner": *planner, "timeout_ms": *timeoutMS,
				})
				endpoint := targets[crng.Intn(len(targets))] + path
				t0 := time.Now()
				status, raw, tries, err := postWithRetry(endpoint, body, *maxRetries, crng)
				retries.Add(int64(tries))
				if err != nil {
					errs.Add(1)
					continue
				}
				lat[id] = append(lat[id], float64(time.Since(t0))/float64(time.Millisecond))
				if status != http.StatusOK {
					errs.Add(1)
					continue
				}
				var pr planResponse
				if json.Unmarshal(raw, &pr) == nil {
					if pr.Cached {
						cached.Add(1)
					}
					if pr.Shared {
						shared.Add(1)
					}
					if pr.Degraded {
						degraded.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	total := *clients * *requests
	fmt.Printf("acqload: %d clients x %d requests against %s (pool %d)\n",
		*clients, *requests, strings.Join(targets, ","), n)
	fmt.Printf("  %d ok, %d errors, %d retries in %.2fs (%.0f req/s)\n",
		total-int(errs.Load()), errs.Load(), retries.Load(), elapsed.Seconds(), float64(total)/elapsed.Seconds())
	if len(all) > 0 {
		fmt.Printf("  latency ms: p50 %.2f  p95 %.2f  p99 %.2f  max %.2f\n",
			pct(all, 50), pct(all, 95), pct(all, 99), all[len(all)-1])
	}
	fmt.Printf("  client-observed: %d cached, %d shared, %d degraded\n",
		cached.Load(), shared.Load(), degraded.Load())

	for _, target := range targets {
		if st, err := fetchStats(target); err == nil {
			fmt.Printf("  server %s: epoch %d, %d cache entries, hit rate %.1f%%, %d planner calls, %d shed\n",
				target, st.Epoch, st.CacheEntries, 100*st.CacheHitRate, st.PlannerCalls, st.ShedRequests)
		}
	}
	if errs.Load() > 0 {
		os.Exit(1)
	}
	if *chaosReport {
		if err := runChaosReport(targets); err != nil {
			fatal(err)
		}
	}
	if *clusterCheck {
		if err := runClusterCheck(targets, queries, path, *planner, *timeoutMS, *maxRetries, *seed); err != nil {
			fatal(err)
		}
	}
}

// awaitReady polls every target's /readyz until it answers 200 or the
// budget runs out.
func awaitReady(targets []string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for _, target := range targets {
		for {
			resp, err := http.Get(target + "/readyz")
			ready := false
			var detail string
			if err != nil {
				detail = err.Error()
			} else {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
				resp.Body.Close()
				ready = resp.StatusCode == http.StatusOK
				detail = strings.TrimSpace(string(body))
			}
			if ready {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("target %s not ready after %v: %s", target, budget, detail)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// plannerCallsTotal sums planner invocations across the targets — for a
// cluster, the number of planner runs cluster-wide.
func plannerCallsTotal(targets []string) (int64, error) {
	var total int64
	for _, target := range targets {
		st, err := fetchStats(target)
		if err != nil {
			return 0, err
		}
		total += st.PlannerCalls
	}
	return total, nil
}

// runClusterCheck verifies the two cluster invariants a black-box
// driver can see:
//
//  1. Single planner run cluster-wide: replaying the entire query pool
//     through every entry node must add zero planner calls — each
//     distinct canonical query was planned once, on its shard owner,
//     and every replay is a cache hit (the owner's entry or another
//     node's copy of it) or a forward to one.
//  2. Epoch coherence: a forced statistics refresh on one node must
//     propagate its new epoch to every target via gossip.
//
// The replay runs before the refresh, since the refresh purges every
// cache the replay relies on.
func runClusterCheck(targets, queries []string, path, planner string, timeoutMS, maxRetries int, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 0x5f3759df))
	base, err := plannerCallsTotal(targets)
	if err != nil {
		return fmt.Errorf("cluster-check: %v", err)
	}
	for _, q := range queries {
		for _, target := range targets {
			body, _ := json.Marshal(map[string]any{
				"sql": q, "planner": planner, "timeout_ms": timeoutMS,
			})
			status, raw, _, err := postWithRetry(target+path, body, maxRetries, rng)
			if err != nil {
				return fmt.Errorf("cluster-check: replay via %s: %v", target, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("cluster-check: replay via %s: status %d: %s", target, status, raw)
			}
		}
	}
	after, err := plannerCallsTotal(targets)
	if err != nil {
		return fmt.Errorf("cluster-check: %v", err)
	}
	if after != base {
		return fmt.Errorf("cluster-check: replaying %d queries through %d entry nodes added %d planner runs, want 0 (cluster-wide singleflight broken)",
			len(queries), len(targets), after-base)
	}
	fmt.Printf("cluster-check: singleflight OK (%d planner runs for %d pool queries, full replay added 0)\n", base, len(queries))

	refreshed, err := forceRefresh(targets[0])
	if err != nil {
		return fmt.Errorf("cluster-check: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, target := range targets {
		for {
			st, err := fetchStats(target)
			if err == nil && st.Epoch >= refreshed {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster-check: target %s never reached epoch %d (gossip epoch propagation broken)", target, refreshed)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	fmt.Printf("cluster-check: epoch coherence OK (all %d targets at epoch >= %d after one forced refresh)\n", len(targets), refreshed)
	return nil
}

// chaosReportKeys are the per-node resilience counters -chaos-report
// pulls from /metrics, in print order: how often forwarding retried,
// failed over along the rendezvous order, opened or skipped a breaker,
// exhausted the retry budget, or fell back to a degraded local plan.
var chaosReportKeys = []struct{ metric, label string }{
	{"acqserved_cluster_degraded_partition", "degraded"},
	{"acqserved_cluster_forward_retries", "retried"},
	{"acqserved_cluster_forward_failovers", "failover"},
	{"acqserved_cluster_breaker_opens", "breaker_opens"},
	{"acqserved_cluster_breaker_skips", "breaker_skips"},
	{"acqserved_cluster_retry_budget_exhausted", "budget_exhausted"},
}

// chaosTransportKeys are the injected-fault counters a node exports only
// when its cluster transport is the chaos layer.
var chaosTransportKeys = []struct{ metric, label string }{
	{"acqserved_chaos_requests", "requests"},
	{"acqserved_chaos_dropped", "dropped"},
	{"acqserved_chaos_injected_5xx", "injected_5xx"},
	{"acqserved_chaos_truncated", "truncated"},
	{"acqserved_chaos_partition_blocked", "partition_blocked"},
}

// runChaosReport prints one resilience line per target plus a
// cluster-wide total, so a chaos smoke can assert on the aggregate
// (e.g. that every request was answered while faults demonstrably
// fired) by grepping the "chaos-report: total" line.
func runChaosReport(targets []string) error {
	totals := make(map[string]int64)
	for _, target := range targets {
		m, err := fetchMetrics(target)
		if err != nil {
			return fmt.Errorf("chaos-report: %v", err)
		}
		var parts []string
		for _, k := range chaosReportKeys {
			v := int64(m[k.metric])
			totals[k.label] += v
			parts = append(parts, fmt.Sprintf("%s %d", k.label, v))
		}
		fmt.Printf("chaos-report: node %s: %s\n", target, strings.Join(parts, ", "))
		if _, ok := m["acqserved_chaos_requests"]; ok {
			parts = parts[:0]
			for _, k := range chaosTransportKeys {
				v := int64(m[k.metric])
				totals[k.label] += v
				parts = append(parts, fmt.Sprintf("%s %d", k.label, v))
			}
			fmt.Printf("chaos-report: injected %s: %s\n", target, strings.Join(parts, ", "))
		}
	}
	var parts []string
	for _, k := range chaosReportKeys {
		parts = append(parts, fmt.Sprintf("%s %d", k.label, totals[k.label]))
	}
	fmt.Printf("chaos-report: total %s\n", strings.Join(parts, ", "))
	if n := totals["requests"]; n > 0 {
		fmt.Printf("chaos-report: total injected requests %d, dropped %d, injected_5xx %d, truncated %d, partition_blocked %d\n",
			n, totals["dropped"], totals["injected_5xx"], totals["truncated"], totals["partition_blocked"])
	}
	return nil
}

// fetchMetrics scrapes a target's /metrics and returns the unlabeled
// series as name -> value; labeled series (per-peer counters, breaker
// gauges) are skipped — the report reads node-level aggregates only.
func fetchMetrics(addr string) (map[string]float64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", addr, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.ContainsRune(fields[0], '{') {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("GET %s/metrics: %v", addr, err)
	}
	return out, nil
}

// forceRefresh POSTs a forced /v1/refresh to one node and returns the new
// epoch.
func forceRefresh(target string) (uint64, error) {
	resp, err := http.Post(target+"/v1/refresh", "application/json", strings.NewReader(`{"force":true}`))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rr struct {
		Refreshed bool   `json:"refreshed"`
		Epoch     uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return 0, fmt.Errorf("POST /v1/refresh: %v", err)
	}
	if resp.StatusCode != http.StatusOK || !rr.Refreshed {
		return 0, fmt.Errorf("POST /v1/refresh: status %d, refreshed=%v", resp.StatusCode, rr.Refreshed)
	}
	return rr.Epoch, nil
}

// randomQuery builds a conjunctive TinyDB-style statement over 1-3 random
// attributes with random sub-domain ranges.
func randomQuery(rng *rand.Rand, schema []attrInfo) string {
	nattrs := 1 + rng.Intn(3)
	if nattrs > len(schema) {
		nattrs = len(schema)
	}
	perm := rng.Perm(len(schema))[:nattrs]
	sort.Ints(perm)
	var terms []string
	for _, ai := range perm {
		a := schema[ai]
		lo := rng.Intn(a.K)
		hi := lo + rng.Intn(a.K-lo)
		switch {
		case lo == hi:
			terms = append(terms, fmt.Sprintf("%s = %d", a.Name, lo))
		case rng.Intn(4) == 0 && lo > 0 && hi < a.K-1:
			terms = append(terms, fmt.Sprintf("NOT (%d <= %s <= %d)", lo, a.Name, hi))
		default:
			terms = append(terms, fmt.Sprintf("%d <= %s <= %d", lo, a.Name, hi))
		}
	}
	return "SELECT * WHERE " + strings.Join(terms, " AND ")
}

// retryBackoffCap bounds the wait between 503 retries; the server's
// Retry-After hint is honored up to this cap.
const retryBackoffCap = 2 * time.Second

// postWithRetry posts the body, retrying up to maxRetries times when the
// server sheds load with 503. Each wait honors the Retry-After header if
// present (falling back to 100ms doubling per attempt), capped and spread
// with +/-50% jitter so the shed cohort does not stampede back in phase.
// tries reports how many retries were consumed, whether or not the final
// attempt succeeded.
func postWithRetry(endpoint string, body []byte, maxRetries int, rng *rand.Rand) (status int, raw []byte, tries int, err error) {
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, tries, err
		}
		raw, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || attempt >= maxRetries {
			return resp.StatusCode, raw, tries, nil
		}
		wait := 100 * time.Millisecond << attempt
		if s, herr := strconv.Atoi(resp.Header.Get("Retry-After")); herr == nil && s >= 0 {
			wait = time.Duration(s) * time.Second
		}
		if wait > retryBackoffCap {
			wait = retryBackoffCap
		}
		wait = time.Duration(float64(wait) * (0.5 + rng.Float64()))
		tries++
		time.Sleep(wait)
	}
}

// pct is the nearest-rank percentile, shared with the server's /metrics
// gauges so client-side and server-side latency reports agree on small
// sample counts.
func pct(sorted []float64, p int) float64 {
	return floats.Percentile(sorted, float64(p))
}

func fetchSchema(addr string) ([]attrInfo, error) {
	st, err := fetchStats(addr)
	if err != nil {
		return nil, err
	}
	if len(st.Schema) == 0 {
		return nil, fmt.Errorf("server at %s reports an empty schema", addr)
	}
	return st.Schema, nil
}

func fetchStats(addr string) (statsResponse, error) {
	var st statsResponse
	resp, err := http.Get(addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET /v1/stats: %v", err)
	}
	return st, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acqload: %v\n", err)
	os.Exit(1)
}
