package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"acqp/internal/chaos"
	"acqp/internal/cluster"
	"acqp/internal/query"
)

// Clustered serving: N acqserved processes share the planning load by
// rendezvous-hashing each canonical query to one shard owner. The owner
// runs (and caches) the planner; every other node forwards /v1/plan to
// it over an internal hop, so the exponential-cost planners run exactly
// once cluster-wide per distinct query — the in-process singleflight
// guarantee, extended across processes. Statistics epochs stay coherent
// through internal/cluster's gossip: a drift refresh on one node bumps
// every peer's epoch and purges their stale cache entries; the
// distributions themselves remain local (each node re-learns from its
// own window), which is safe because only a key's owner plans it.

// ClusterConfig joins a Server to a planning cluster.
type ClusterConfig struct {
	// Self is the URL peers reach this node at (scheme://host:port, no
	// trailing slash). Required.
	Self string
	// Peers are the other members' URLs (static seed list; more can join
	// over HTTP).
	Peers []string
	// GossipInterval is the heartbeat/anti-entropy cadence. Zero means
	// no background loop — tests drive the protocol by hand through the
	// cluster.Node.
	GossipInterval time.Duration
	// FailAfter is the consecutive-failure threshold for declaring a
	// peer dead. Default 3.
	FailAfter int
	// Seed makes the gossip jitter reproducible. Default 1.
	Seed uint64
	// ForwardTimeout bounds one forwarded planning request (and one
	// gossip exchange). Default 5s.
	ForwardTimeout time.Duration

	// ForwardRetries is how many times one forward is retried against
	// the same peer (with capped exponential backoff) before failing
	// over. Default 1; negative disables retries.
	ForwardRetries int
	// MaxFailovers is how many additional rendezvous candidates are
	// tried after the owner fails before degrading to local planning.
	// Default 1; negative disables failover.
	MaxFailovers int
	// RetryBackoff is the base backoff between retries to the same peer,
	// doubled per attempt and capped at 8x. Default 50ms.
	RetryBackoff time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker. Default 5; negative disables breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe. Default 3s.
	BreakerCooldown time.Duration
	// RetryBudgetRatio bounds retry amplification: each first attempt
	// earns this many retry tokens (capped bucket), each retry spends
	// one. Default 0.1 — at most ~10% extra load from retries under a
	// total outage.
	RetryBudgetRatio float64

	// Now is the wall clock for membership and breaker timing. Default
	// time.Now; the chaos suite injects a fake clock here.
	Now func() time.Time
	// Transport, when set, carries both forwarded plan requests and
	// gossip exchanges — the chaos harness installs a
	// chaos.Transport here so partitions affect planning and failure
	// detection coherently. Default http.DefaultTransport.
	Transport http.RoundTripper

	// Logf receives membership transitions; nil silences them.
	Logf func(format string, args ...any)
}

// resilience is the resolved forwarding-resilience parameters.
type resilience struct {
	forwardRetries   int
	maxFailovers     int
	retryBackoff     time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration
}

// Forwarding headers. Hops guards against routing loops: a request that
// already took an internal hop is always planned where it lands, even
// if membership views briefly diverge on who owns the key.
const (
	hopsHeader = "X-Acq-Cluster-Hops"
	fromHeader = "X-Acq-Cluster-From"
)

// startCluster wires the cluster node into the server: routes, the
// forwarding client, and the gossip loop (under baseCtx, so Shutdown
// stops it).
func (s *Server) startCluster(cc *ClusterConfig) error {
	ft := cc.ForwardTimeout
	if ft <= 0 {
		ft = 5 * time.Second
	}
	now := cc.Now
	if now == nil {
		now = time.Now
	}
	client := &http.Client{Timeout: ft, Transport: cc.Transport}
	s.resil = resolveResilience(cc)
	s.clusterNow = now
	s.forwardTransport = cc.Transport
	ratio := cc.RetryBudgetRatio
	if ratio == 0 {
		ratio = 0.1
	}
	if ratio < 0 {
		ratio = 0
	}
	s.budget = newRetryBudget(ratio, 16)
	n, err := cluster.New(cluster.Config{
		Self:           cc.Self,
		Peers:          cc.Peers,
		GossipInterval: cc.GossipInterval,
		FailAfter:      cc.FailAfter,
		Seed:           cc.Seed,
		Now:            now,
		Client:         client,
		Local:          s,
		Logf:           cc.Logf,
	})
	if err != nil {
		return err
	}
	s.cluster = n
	s.clusterSelf = cc.Self
	s.forwardClient = client
	s.mux.Handle("/v1/cluster", n)
	s.mux.Handle("/v1/cluster/", n)
	n.Start(s.baseCtx)
	return nil
}

// resolveResilience applies the documented defaults: zero selects the
// default, negative disables.
func resolveResilience(cc *ClusterConfig) resilience {
	r := resilience{
		forwardRetries:   cc.ForwardRetries,
		maxFailovers:     cc.MaxFailovers,
		retryBackoff:     cc.RetryBackoff,
		breakerThreshold: cc.BreakerThreshold,
		breakerCooldown:  cc.BreakerCooldown,
	}
	if r.forwardRetries == 0 {
		r.forwardRetries = 1
	} else if r.forwardRetries < 0 {
		r.forwardRetries = 0
	}
	if r.maxFailovers == 0 {
		r.maxFailovers = 1
	} else if r.maxFailovers < 0 {
		r.maxFailovers = 0
	}
	if r.retryBackoff <= 0 {
		r.retryBackoff = 50 * time.Millisecond
	}
	if r.breakerThreshold == 0 {
		r.breakerThreshold = 5
	} else if r.breakerThreshold < 0 {
		r.breakerThreshold = int(^uint(0) >> 1) // effectively never opens
	}
	if r.breakerCooldown <= 0 {
		r.breakerCooldown = 3 * time.Second
	}
	return r
}

// Server implements cluster.Local: the epoch accessor lives in
// serve.go; StatsDigest and AdvanceTo follow.

// StatsDigest hashes the current distribution's marginal histograms
// (with the epoch folded in), giving gossip a cheap fingerprint that
// distinguishes "same epoch, same statistics" from "same epoch,
// diverged statistics" in cluster introspection.
func (s *Server) StatsDigest() uint64 {
	dist, epoch := s.snapshot()
	root := dist.Root() // read-only: an empirical table shares one root context with every planner
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], epoch)
	_, _ = h.Write(buf[:])
	sch := dist.Schema()
	for i := 0; i < sch.NumAttrs(); i++ {
		for _, v := range root.Hist(i) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			_, _ = h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// AdvanceTo installs a statistics epoch learned from a peer: the local
// epoch ratchets up to it and cache entries planned under older epochs
// are purged — the cross-node half of the drift-invalidation story. The
// distribution is deliberately left in place: epochs are the cluster's
// cache-coherence clock, while distributions stay local to each node's
// window (and only a key's owner plans it, so nodes never mix plans
// from diverged statistics for the same key).
func (s *Server) AdvanceTo(epoch uint64, from string) (uint64, int) {
	s.mu.Lock()
	if epoch <= s.epoch {
		cur := s.epoch
		s.mu.Unlock()
		return cur, 0
	}
	s.epoch = epoch
	s.mu.Unlock()
	purged := s.cache.invalidateBefore(epoch)
	count(&s.metrics.invalidated, int64(purged))
	count(&s.metrics.epochBumps, 1)
	if from != "" {
		count(&s.metrics.peer(from).epochBumps, 1)
	}
	return epoch, purged
}

// remoteError relays a shard owner's HTTP error verbatim: the owner
// already rendered the right status and JSON body (400, 422, 503, ...),
// so the forwarding node must not re-wrap it.
type remoteError struct {
	status     int
	body       []byte
	retryAfter string
}

func (e *remoteError) Error() string {
	return fmt.Sprintf("shard owner returned %d: %s", e.status, bytes.TrimSpace(e.body))
}

// planRouted answers a planning request under cluster routing:
//
//   - no cluster, we own the key, or the request already took an
//     internal hop → plan locally through the cache;
//   - a peer owns the key → forward the raw request to it, retrying
//     with capped backoff (bounded by the retry budget) and honoring
//     Retry-After on a shed;
//   - the owner stays unreachable (or its breaker is open) → fail over
//     to the next alive node in rendezvous order, up to MaxFailovers;
//   - every candidate ranked above us is exhausted → report the
//     failures, plan locally at the last-known epoch, and mark the
//     outcome degraded (never cached) — answers over errors during a
//     partition.
//
// servedBy is the advertised URL of the node that did the planning work
// ("" when unclustered) and forwarded reports an internal hop.
func (s *Server) planRouted(r *http.Request, canon query.Query, p plannerParams, req planRequest, raw []byte) (out planOutcome, cached, shared bool, servedBy string, forwarded bool, err error) {
	if s.cluster == nil {
		out, cached, shared, err = s.planCached(r.Context(), canon, p, req.NoCache, req.Faults != nil)
		return out, cached, shared, "", false, err
	}
	if hops, _ := strconv.Atoi(r.Header.Get(hopsHeader)); hops > 0 {
		if from := r.Header.Get(fromHeader); from != "" {
			count(&s.metrics.peer(from).forwardsReceived, 1)
		}
		out, cached, shared, err = s.planCached(r.Context(), canon, p, req.NoCache, req.Faults != nil)
		return out, cached, shared, s.clusterSelf, false, err
	}
	// Walk the rendezvous candidates ranked above us. The first entry is
	// the owner; the rest are the deterministic failover order every
	// node agrees on. Self ends the walk: we only plan a whole (cached)
	// answer when the membership view ranks us first — planning locally
	// because better-ranked candidates are unreachable is the degraded
	// path below, so partition answers never enter any cache before the
	// failure detector actually moves ownership.
	order := s.cluster.OwnerOrder(canon.Key())
	if len(order) > 0 && order[0] == s.clusterSelf {
		out, cached, shared, err = s.planCached(r.Context(), canon, p, req.NoCache, req.Faults != nil)
		return out, cached, shared, s.clusterSelf, false, err
	}
	attempts := 0
	for _, owner := range order {
		if owner == s.clusterSelf || attempts >= 1+s.resil.maxFailovers {
			break
		}
		br := s.breakerFor(owner)
		if !br.allow(s.clusterNow()) {
			// Open breaker: skip to the next candidate without paying a
			// connect timeout. The skip is not an attempt.
			count(&s.metrics.breakerSkips, 1)
			continue
		}
		if attempts > 0 {
			count(&s.metrics.forwardFailovers, 1)
		}
		attempts++
		count(&s.metrics.peer(owner).forwardsSent, 1)
		resp, ferr := s.forwardResilient(r.Context(), owner, raw, br)
		if ferr == nil {
			return outcomeFromRemote(resp), resp.Cached, resp.Shared, owner, true, nil
		}
		var re *remoteError
		if errors.As(ferr, &re) && re.status < http.StatusInternalServerError {
			// The owner is reachable and answered with a client-side
			// verdict (400, 404, 422, ...); it stands.
			return planOutcome{}, false, false, owner, true, ferr
		}
		if errors.As(ferr, &re) && re.status == http.StatusServiceUnavailable && re.retryAfter != "" {
			// A load shed that survived the retry loop: the peer is alive
			// but saturated. Relay the shed (with its Retry-After) rather
			// than piling the same work onto another node.
			return planOutcome{}, false, false, owner, true, ferr
		}
		if r.Context().Err() != nil {
			return planOutcome{}, false, false, s.clusterSelf, false, r.Context().Err()
		}
		// Transport failure or server-side 5xx: move to the next
		// rendezvous candidate (forwardResilient already fed the breaker
		// and the failure detector).
	}
	// Every remote candidate failed or was skipped: a partition, not a
	// planning failure. Plan locally at the last-known epoch. The result
	// is marked degraded and bypasses the cache in both directions — it
	// may have been built from statistics the cluster has already moved
	// past, so it must neither persist nor be served to a later request
	// that could reach the owner.
	count(&s.metrics.degradedPartition, 1)
	out, _, shared, err = s.planCached(r.Context(), canon, p, true, true)
	if err != nil {
		return planOutcome{}, false, false, s.clusterSelf, false, err
	}
	out.degraded = true
	return out, false, shared, s.clusterSelf, false, nil
}

// forwardResilient forwards one planning request to one peer with the
// retry policy: up to ForwardRetries retries with capped exponential
// backoff, each retry paid for from the shared retry budget, a shed's
// Retry-After honored as the backoff floor, and every hard failure fed
// to the peer's breaker and the cluster failure detector. The returned
// error is the last attempt's.
func (s *Server) forwardResilient(ctx context.Context, owner string, raw []byte, br *breaker) (*planResponse, error) {
	s.budget.deposit()
	backoff := s.resil.retryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := s.forwardPlan(ctx, owner, raw)
		if err == nil {
			br.success()
			return resp, nil
		}
		lastErr = err
		var re *remoteError
		shed := false
		switch {
		case errors.As(err, &re) && re.status < http.StatusInternalServerError:
			// Reachable, definitive verdict: not a peer failure.
			br.success()
			return nil, err
		case errors.As(err, &re) && re.status == http.StatusServiceUnavailable && re.retryAfter != "":
			// A load shed is backpressure, not brokenness: retry after
			// the advertised delay, but do not trip the breaker or the
			// failure detector.
			shed = true
		default:
			// Transport error or server-side 5xx.
			if br.failure(s.clusterNow()) {
				count(&s.metrics.breakerOpens, 1)
				count(&s.metrics.peer(owner).breakerOpens, 1)
			}
			s.cluster.ReportFailure(owner)
			count(&s.metrics.peer(owner).forwardFailures, 1)
		}
		if attempt >= s.resil.forwardRetries || ctx.Err() != nil {
			return nil, lastErr
		}
		if !shed && br.snapshot() == breakerOpen {
			// The streak just opened the breaker; hammering the same peer
			// with the remaining retries defeats its purpose.
			return nil, lastErr
		}
		if !s.budget.withdraw() {
			count(&s.metrics.retryBudgetExhausted, 1)
			return nil, lastErr
		}
		wait := backoff
		if shed {
			if ra := retryAfterDuration(re.retryAfter); ra > wait {
				wait = ra
			}
		}
		if sleepCtx(ctx, wait) != nil {
			return nil, lastErr
		}
		backoff *= 2
		if max := 8 * s.resil.retryBackoff; backoff > max {
			backoff = max
		}
		count(&s.metrics.forwardRetries, 1)
		count(&s.metrics.peer(owner).retries, 1)
	}
}

// retryAfterDuration parses a Retry-After header's delta-seconds form
// (the only form this service emits); 0 for anything else.
func retryAfterDuration(h string) time.Duration {
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// sleepCtx waits d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// forwardPlan relays a /v1/plan body to the shard owner. A *remoteError
// means the owner answered with a non-200 status; any other error means
// it could not be reached (or spoke garbage) and the caller should take
// the partition path.
func (s *Server) forwardPlan(ctx context.Context, owner string, raw []byte) (*planResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/plan", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(hopsHeader, "1")
	hreq.Header.Set(fromHeader, s.clusterSelf)
	if id := requestIDFrom(ctx); id != "" {
		hreq.Header.Set("X-Request-Id", id)
	}
	resp, err := s.forwardClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the cap so an over-long body is a loud peer
	// failure (taking the partition/failover path) instead of a silent
	// truncation that surfaces as a confusing JSON decode error.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, fmt.Errorf("shard owner response exceeds %d bytes", maxBodyBytes)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &remoteError{status: resp.StatusCode, body: body, retryAfter: resp.Header.Get("Retry-After")}
	}
	var pr planResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, fmt.Errorf("decoding shard owner response: %w", err)
	}
	return &pr, nil
}

// outcomeFromRemote reshapes the owner's response for the local
// handler. The decoded plan node is not materialized — /v1/plan renders
// from the owner's strings, and /execute never forwards.
func outcomeFromRemote(pr *planResponse) planOutcome {
	return planOutcome{
		rendered:  pr.Plan,
		encoded:   pr.PlanB64,
		cost:      pr.ExpectedCost,
		naiveCost: pr.NaiveCost,
		splits:    pr.Splits,
		sizeBytes: pr.SizeBytes,
		degraded:  pr.Degraded,
		epoch:     pr.Epoch,
		planMS:    pr.PlanMS,
		traceSnap: pr.Trace,
	}
}

// handleReadyz serves GET /readyz: readiness, as distinct from the
// liveness /healthz. An unclustered server is ready once it is serving;
// a clustered one is not ready while joining, while any peer is
// unresolved, or while its statistics epoch lags the gossiped cluster
// maximum — a load balancer sending traffic then would get plans about
// to be invalidated.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": s.Epoch()})
		return
	}
	ready, reason := s.cluster.Ready()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason, "epoch": s.Epoch()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "epoch": s.Epoch()})
}

// peerCounters is one peer's row of the cluster metrics.
type peerCounters struct {
	forwardsSent     atomic.Int64 // /v1/plan requests forwarded to this peer
	forwardsReceived atomic.Int64 // forwarded requests received from this peer
	forwardFailures  atomic.Int64 // forwards to this peer that failed at transport
	epochBumps       atomic.Int64 // epoch advances learned from this peer
	retries          atomic.Int64 // forward retries against this peer
	breakerOpens     atomic.Int64 // times this peer's breaker opened
}

// clusterMetrics is the per-peer counter table, embedded in metrics.
type clusterMetrics struct {
	peerMu sync.Mutex
	peers  map[string]*peerCounters
}

// peer returns (creating on first use) a peer's counter row.
func (m *clusterMetrics) peer(url string) *peerCounters {
	m.peerMu.Lock()
	defer m.peerMu.Unlock()
	if m.peers == nil {
		m.peers = make(map[string]*peerCounters)
	}
	p := m.peers[url]
	if p == nil {
		p = &peerCounters{}
		m.peers[url] = p
	}
	return p
}

// writeClusterMetrics appends the cluster section to /metrics: node
// aggregates from the gossip layer plus the per-peer counters, peers in
// sorted order so scrapes are deterministic.
func (s *Server) writeClusterMetrics(w io.Writer) error {
	if s.cluster == nil {
		return nil
	}
	st := s.cluster.StatsSnapshot()
	joined := 0.0
	if st.Joined {
		joined = 1
	}
	lines := []struct {
		name string
		val  float64
	}{
		{"acqserved_cluster_gossip_rounds", float64(st.Rounds)},
		{"acqserved_cluster_exchange_failures", float64(st.Failures)},
		{"acqserved_cluster_peers_alive", float64(st.Alive)},
		{"acqserved_cluster_peers_known", float64(st.Known)},
		{"acqserved_cluster_max_epoch", float64(st.MaxEpoch)},
		{"acqserved_cluster_joined", joined},
		{"acqserved_cluster_epoch_bumps", float64(s.metrics.epochBumps.Load())},
		{"acqserved_cluster_degraded_partition", float64(s.metrics.degradedPartition.Load())},
		{"acqserved_cluster_forward_retries", float64(s.metrics.forwardRetries.Load())},
		{"acqserved_cluster_forward_failovers", float64(s.metrics.forwardFailovers.Load())},
		{"acqserved_cluster_retry_budget_exhausted", float64(s.metrics.retryBudgetExhausted.Load())},
		{"acqserved_cluster_breaker_opens", float64(s.metrics.breakerOpens.Load())},
		{"acqserved_cluster_breaker_skips", float64(s.metrics.breakerSkips.Load())},
	}
	for _, l := range lines {
		if _, err := fmt.Fprintf(w, "%s %g\n", l.name, l.val); err != nil {
			return err
		}
	}
	s.metrics.peerMu.Lock()
	urls := make([]string, 0, len(s.metrics.peers))
	//acqlint:ignore maporder collection order is erased by the sort below
	for u := range s.metrics.peers {
		urls = append(urls, u)
	}
	s.metrics.peerMu.Unlock()
	sort.Strings(urls)
	for _, u := range urls {
		pc := s.metrics.peer(u)
		for _, l := range []struct {
			name string
			val  int64
		}{
			{"acqserved_cluster_forwards_sent", pc.forwardsSent.Load()},
			{"acqserved_cluster_forwards_received", pc.forwardsReceived.Load()},
			{"acqserved_cluster_forward_failures", pc.forwardFailures.Load()},
			{"acqserved_cluster_epoch_bumps_received", pc.epochBumps.Load()},
			{"acqserved_cluster_forward_retries_peer", pc.retries.Load()},
			{"acqserved_cluster_breaker_opens_peer", pc.breakerOpens.Load()},
		} {
			if _, err := fmt.Fprintf(w, "%s{peer=%q} %d\n", l.name, u, l.val); err != nil {
				return err
			}
		}
	}
	// Breaker state gauge: 0 closed, 1 half-open, 2 open.
	states := s.breakerStates()
	burls := make([]string, 0, len(states))
	//acqlint:ignore maporder collection order is erased by the sort below
	for u := range states {
		burls = append(burls, u)
	}
	sort.Strings(burls)
	for _, u := range burls {
		if _, err := fmt.Fprintf(w, "acqserved_cluster_breaker_state{peer=%q,meaning=%q} %d\n",
			u, breakerStateNames[states[u]], states[u]); err != nil {
			return err
		}
	}
	// Chaos-injection counters, present only when the smoke harness
	// installed a chaos transport on this node.
	if ct, ok := s.forwardTransport.(*chaos.Transport); ok {
		cs := ct.Snapshot()
		for _, l := range []struct {
			name string
			val  int64
		}{
			{"acqserved_chaos_requests", cs.Requests},
			{"acqserved_chaos_passed", cs.Passed},
			{"acqserved_chaos_dropped", cs.Dropped},
			{"acqserved_chaos_injected_5xx", cs.Injected},
			{"acqserved_chaos_truncated", cs.Truncated},
			{"acqserved_chaos_delayed", cs.Delayed},
			{"acqserved_chaos_partition_blocked", cs.Blocked},
		} {
			if _, err := fmt.Fprintf(w, "%s %d\n", l.name, l.val); err != nil {
				return err
			}
		}
	}
	return nil
}
