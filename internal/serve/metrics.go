package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acqp/internal/floats"
	"acqp/internal/trace"
)

// metrics holds the service counters exposed on /metrics. Counters are
// atomics; the latency sample buffer has its own lock.
type metrics struct {
	cacheHits    atomic.Int64 // /plan answered from the LRU cache
	flightShared atomic.Int64 // /plan answered by another caller's in-flight planning
	cacheMisses  atomic.Int64 // /plan that required planning
	plannerCalls atomic.Int64 // primary planner invocations (excludes sequential fallbacks)
	degraded     atomic.Int64 // planning outcomes degraded by a deadline
	shed         atomic.Int64 // requests rejected because the queue was full
	executed     atomic.Int64 // /execute runs
	ingested     atomic.Int64 // tuples accepted by /ingest
	refreshes    atomic.Int64 // statistics refreshes that bumped the epoch
	invalidated  atomic.Int64 // cache entries purged by epoch bumps
	inFlight     atomic.Int64 // /plan and /execute requests currently being served

	modelFits atomic.Int64 // fitted-model builds (one per model name per epoch)

	faultExecutions atomic.Int64 // /execute runs under a faults section
	faultRetries    atomic.Int64 // acquisition retries across fault-injected runs
	faultFailures   atomic.Int64 // ultimate acquisition failures across fault-injected runs
	faultFallbacks  atomic.Int64 // fallback resolutions (abstentions + imputations + replans)
	degradedAnswers atomic.Int64 // abstained or fault-corrupted answers returned

	epochBumps        atomic.Int64 // epoch advances learned from peers via gossip
	degradedPartition atomic.Int64 // /plan answered locally because no shard candidate was reachable
	clusterMetrics                 // per-peer forward/gossip counter table

	forwardRetries       atomic.Int64 // forward attempts retried after a failure or shed
	forwardFailovers     atomic.Int64 // forwards redirected to a lower-ranked rendezvous candidate
	retryBudgetExhausted atomic.Int64 // retries skipped because the budget ran dry
	breakerOpens         atomic.Int64 // circuit-breaker open transitions across all peers
	breakerSkips         atomic.Int64 // forward candidates skipped because their breaker was open

	// Planner search counters, aggregated from the per-run trace spans
	// (trace.Counter order).
	search [8]atomic.Int64

	// requests splits end-to-end request latency by endpoint and outcome.
	requests [numEndpoints][numOutcomes]latencyRing
}

// Endpoint and outcome axes of the per-request latency rings.
const (
	epPlan = iota
	epExecute
	numEndpoints
)

const (
	outcomeHit = iota // answered from the cache or a shared in-flight run
	outcomeMiss
	outcomeDegraded
	numOutcomes
)

var endpointNames = [numEndpoints]string{"plan", "execute"}
var outcomeNames = [numOutcomes]string{"hit", "miss", "degraded"}

// recordRequest files one completed request's latency under its
// endpoint and outcome.
func (m *metrics) recordRequest(endpoint, outcome int, d time.Duration) {
	if endpoint < 0 || endpoint >= numEndpoints || outcome < 0 || outcome >= numOutcomes {
		return
	}
	m.requests[endpoint][outcome].record(d)
}

// mergeSpan folds one planner run's search counters into the service
// aggregates surfaced on /metrics.
func (m *metrics) mergeSpan(sp *trace.Span) {
	for c := trace.Counter(0); int(c) < len(m.search); c++ {
		if v := sp.Counter(c); v != 0 {
			count(&m.search[c], v)
		}
	}
}

// count adds delta to an atomic counter and returns the new value. The
// indirection keeps call sites as expression-statements of a non-error
// function: the errdrop analyzer resolves bare .Add(...) calls by method
// name alone and would mistake atomic.Int64.Add for the error-returning
// Add methods elsewhere in the repository.
func count(c *atomic.Int64, delta int64) int64 { return c.Add(delta) }

// latencyRing keeps the most recent request latencies for percentile
// estimation: a fixed ring so memory stays bounded under any load.
type latencyRing struct {
	mu      sync.Mutex
	samples [1024]float64 // milliseconds
	n       int           // total recorded (ring holds min(n, len))
}

func (r *latencyRing) record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	r.mu.Lock()
	r.samples[r.n%len(r.samples)] = ms
	r.n++
	r.mu.Unlock()
}

// percentiles returns the p50/p95/p99 of the retained samples, in
// milliseconds; zeros when nothing has been recorded.
func (r *latencyRing) percentiles() (p50, p95, p99 float64) {
	r.mu.Lock()
	n := r.n
	if n > len(r.samples) {
		n = len(r.samples)
	}
	buf := make([]float64, n)
	copy(buf, r.samples[:n])
	r.mu.Unlock()
	if n == 0 {
		return 0, 0, 0
	}
	sort.Float64s(buf)
	return floats.Percentile(buf, 50), floats.Percentile(buf, 95), floats.Percentile(buf, 99)
}

// hitRate returns the fraction of /plan requests served without a planner
// run (cache hits plus singleflight-shared results).
func (m *metrics) hitRate() float64 {
	h := m.cacheHits.Load() + m.flightShared.Load()
	total := h + m.cacheMisses.Load()
	if total == 0 {
		return 0
	}
	return float64(h) / float64(total)
}

// write renders the counters in Prometheus text exposition format.
func (m *metrics) write(w io.Writer, epoch uint64, cacheLen, cacheCap int) error {
	lines := []struct {
		name string
		val  float64
	}{
		{"acqserved_cache_hits", float64(m.cacheHits.Load())},
		{"acqserved_flight_shared", float64(m.flightShared.Load())},
		{"acqserved_cache_misses", float64(m.cacheMisses.Load())},
		{"acqserved_planner_calls", float64(m.plannerCalls.Load())},
		{"acqserved_degraded_plans", float64(m.degraded.Load())},
		{"acqserved_shed_requests", float64(m.shed.Load())},
		{"acqserved_executions", float64(m.executed.Load())},
		{"acqserved_ingested_tuples", float64(m.ingested.Load())},
		{"acqserved_stats_refreshes", float64(m.refreshes.Load())},
		{"acqserved_cache_invalidated", float64(m.invalidated.Load())},
		{"acqserved_in_flight", float64(m.inFlight.Load())},
		{"acqserved_model_fits", float64(m.modelFits.Load())},
		{"acqserved_fault_executions", float64(m.faultExecutions.Load())},
		{"acqserved_fault_retries", float64(m.faultRetries.Load())},
		{"acqserved_fault_failures", float64(m.faultFailures.Load())},
		{"acqserved_fault_fallbacks", float64(m.faultFallbacks.Load())},
		{"acqserved_degraded_answers", float64(m.degradedAnswers.Load())},
		{"acqserved_cache_entries", float64(cacheLen)},
		{"acqserved_cache_capacity", float64(cacheCap)},
		{"acqserved_stats_epoch", float64(epoch)},
	}
	for c := trace.Counter(0); int(c) < len(m.search); c++ {
		lines = append(lines, struct {
			name string
			val  float64
		}{"acqserved_search_" + c.String(), float64(m.search[c].Load())})
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %g\n", l.name, l.val); err != nil {
			return err
		}
	}
	// Per-request latency percentiles, labelled by endpoint and outcome.
	for e := 0; e < numEndpoints; e++ {
		for o := 0; o < numOutcomes; o++ {
			q50, q95, q99 := m.requests[e][o].percentiles()
			for _, q := range []struct {
				name string
				val  float64
			}{{"p50", q50}, {"p95", q95}, {"p99", q99}} {
				if _, err := fmt.Fprintf(w, "acqserved_request_latency_ms{endpoint=%q,outcome=%q,quantile=%q} %g\n",
					endpointNames[e], outcomeNames[o], q.name, q.val); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
