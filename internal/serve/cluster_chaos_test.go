package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"acqp/internal/chaos"
)

// The network chaos suite: the 3-node cluster harness with a seeded
// chaos.Transport on every node's forwarding/gossip client and an
// injected fake clock, driven by manual gossip stepping. ci.sh runs
// this file under -race. The invariants pinned here:
//
//   - every request is answered (degraded at worst, never an error);
//   - degraded answers are never served from or stored into any cache;
//   - routing cannot loop under flapping ownership (one internal hop,
//     then planning happens where the request lands);
//   - breakers open on a partitioned peer, skip it while open, and
//     recover through a half-open probe after the cooldown;
//   - after a heal, cluster-wide singleflight is restored exactly.

// fakeClock is the injected cluster/breaker clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// chaosHarness is the cluster harness plus each node's chaos transport
// and the shared fake clock.
type chaosHarness struct {
	*clusterHarness
	trs   []*chaos.Transport
	clock *fakeClock
}

// newChaosHarness builds an n-node cluster whose forwarding and gossip
// clients run through per-node chaos transports (seeded seed, seed+1,
// ...), with 1ms retry backoff so tests stay fast. mod can further
// adjust each node's config after the chaos wiring.
func newChaosHarness(t *testing.T, n int, seed uint64, mod func(i int, cfg *Config)) *chaosHarness {
	t.Helper()
	ch := &chaosHarness{trs: make([]*chaos.Transport, n), clock: newFakeClock()}
	ch.clusterHarness = newClusterHarness(t, n, func(i int, cfg *Config) {
		tr := chaos.New(chaos.Config{
			Seed:  seed + uint64(i),
			Self:  cfg.Cluster.Self,
			Sleep: func(time.Duration) {}, // injected latency is recorded, not paid
		})
		ch.trs[i] = tr
		cfg.Cluster.Transport = tr
		cfg.Cluster.Now = ch.clock.Now
		cfg.Cluster.RetryBackoff = time.Millisecond
		if mod != nil {
			mod(i, cfg)
		}
	})
	return ch
}

// ownerIdxOf maps an advertised URL to its harness index.
func (h *chaosHarness) idxOf(t *testing.T, url string) int {
	t.Helper()
	for i, u := range h.urls {
		if u == url {
			return i
		}
	}
	t.Fatalf("url %q is not a harness node", url)
	return -1
}

// freshPool returns n distinct queries disjoint from workload16 (and
// from other calls with a different tag).
func freshPool(tag, n int) []string {
	pool := make([]string, 0, n)
	for i := 0; i < n; i++ {
		pool = append(pool, fmt.Sprintf("SELECT * WHERE humid <= %d AND hour >= %d", i%14, 2*(tag/100)%20))
	}
	return pool
}

// assertSingleflightRestored drives a fresh query pool through every
// node sequentially and requires the cluster to plan each distinct
// query exactly once, then replays the pool and requires zero
// additional planner runs — the exactly-one-planner-run-per-distinct-
// query invariant the cluster must return to after any chaos episode.
func (h *chaosHarness) assertSingleflightRestored(t *testing.T, tag int) {
	t.Helper()
	pool := freshPool(tag, 6)
	before := h.plannerCallsTotal()
	for _, sql := range pool {
		for _, url := range h.urls {
			code, pr := clusterPost[planResponse](t, h.clusterHarness, url, "/v1/plan", planRequest{SQL: sql})
			if code != http.StatusOK {
				t.Fatalf("post-heal %q via %s: status %d", sql, url, code)
			}
			if pr.Degraded {
				t.Fatalf("post-heal %q via %s: still degraded after heal", sql, url)
			}
		}
	}
	if d := h.plannerCallsTotal() - before; d != int64(len(pool)) {
		t.Fatalf("fresh pool of %d distinct queries took %d planner runs; singleflight not restored", len(pool), d)
	}
	mid := h.plannerCallsTotal()
	for _, sql := range pool {
		for _, url := range h.urls {
			if code, _ := clusterPost[planResponse](t, h.clusterHarness, url, "/v1/plan", planRequest{SQL: sql}); code != http.StatusOK {
				t.Fatalf("replay %q via %s failed", sql, url)
			}
		}
	}
	if d := h.plannerCallsTotal() - mid; d != 0 {
		t.Fatalf("replaying the pool added %d planner runs; caches not coherent after heal", d)
	}
}

// TestClusterChaosAllAnswered floods every inter-node link with seeded
// drops, synthetic 5xx, and truncated bodies, and requires that every
// request is still answered 200 — whole via retries and rendezvous
// failover when possible, degraded otherwise — and that no degraded
// answer is ever served from a cache. Then the rules are lifted and
// cluster-wide singleflight must be exactly restored.
func TestClusterChaosAllAnswered(t *testing.T) {
	h := newChaosHarness(t, 3, 1234, func(i int, cfg *Config) {
		cfg.Cluster.ForwardRetries = 2
		cfg.Cluster.MaxFailovers = 2
		cfg.Cluster.BreakerThreshold = 4
		cfg.Cluster.BreakerCooldown = time.Second
		cfg.Cluster.FailAfter = 1000 // keep membership stable; this test is about the data path
	})
	h.converge(t)
	for _, tr := range h.trs {
		if err := tr.SetDefault(chaos.Rule{PDrop: 0.25, P5xx: 0.15, PTruncate: 0.15}); err != nil {
			t.Fatal(err)
		}
	}
	degraded, whole := 0, 0
	for round := 0; round < 3; round++ {
		for qi, sql := range workload16 {
			url := h.urls[(round+qi)%len(h.urls)]
			code, pr := clusterPost[planResponse](t, h.clusterHarness, url, "/v1/plan", planRequest{SQL: sql})
			if code != http.StatusOK {
				t.Fatalf("round %d %q via %s: status %d; chaos must never surface as an error", round, sql, url, code)
			}
			if pr.Degraded {
				degraded++
				if pr.Cached {
					t.Fatalf("round %d %q via %s: degraded answer served from cache", round, sql, url)
				}
			} else {
				whole++
			}
			if pr.Plan == "" {
				t.Fatalf("round %d %q via %s: empty plan in a 200", round, sql, url)
			}
		}
	}
	if whole == 0 {
		t.Fatal("no whole answers at these fault rates; retries/failover not engaging")
	}
	// Within one run the injection sequence is fully deterministic, but
	// the pair hashes mix in the harness's ephemeral ports, so *which*
	// faults land in a fixed request count varies across runs. Top up
	// with extra requests until every mode has demonstrably fired.
	sumInjected := func() chaos.Stats {
		var s chaos.Stats
		for _, tr := range h.trs {
			snap := tr.Snapshot()
			s.Dropped += snap.Dropped
			s.Injected += snap.Injected
			s.Truncated += snap.Truncated
		}
		return s
	}
	allFired := func(s chaos.Stats) bool { return s.Dropped > 0 && s.Injected > 0 && s.Truncated > 0 }
	injected := sumInjected()
	for extra := 0; !allFired(injected) && extra < 300; extra++ {
		sql := fmt.Sprintf("SELECT * WHERE temp >= %d AND light >= %d", extra%12, extra%15)
		url := h.urls[extra%len(h.urls)]
		code, _ := clusterPost[planResponse](t, h.clusterHarness, url, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK {
			t.Fatalf("top-up %q via %s: status %d; chaos must never surface as an error", sql, url, code)
		}
		injected = sumInjected()
	}
	if !allFired(injected) {
		t.Fatalf("chaos did not exercise every fault mode: %+v", injected)
	}
	t.Logf("chaos run: %d whole, %d degraded answers; injected %+v", whole, degraded, injected)

	// Lift the chaos; breakers (if any opened) recover through probes
	// after the cooldown.
	for _, tr := range h.trs {
		if err := tr.SetDefault(chaos.Rule{}); err != nil {
			t.Fatal(err)
		}
	}
	h.clock.Advance(2 * time.Second)
	h.assertSingleflightRestored(t, 100)
}

// TestClusterChaosReplayDeterministic pins that one seed produces one
// injection decision sequence: two identical request streams through
// two identically-seeded transports against the same destination
// observe identical per-link injection counters at every step.
func TestClusterChaosReplayDeterministic(t *testing.T) {
	// Two fresh harnesses cannot share URLs (ephemeral ports feed the
	// decision hash), so determinism is pinned at the transport level
	// here — same seed, same self, same destination — while the suite
	// above exercises the serving path. Two passes over one transport
	// config must agree exactly.
	runOnce := func() []chaos.Stats {
		tr := chaos.New(chaos.Config{Seed: 77, Self: "http://a", Sleep: func(time.Duration) {}})
		if err := tr.SetDefault(chaos.Rule{PDrop: 0.3, P5xx: 0.3}); err != nil {
			t.Fatal(err)
		}
		var history []chaos.Stats
		for i := 0; i < 64; i++ {
			req, err := http.NewRequest(http.MethodGet, "http://b.invalid/x", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, _ := tr.RoundTrip(req) // drops error, 5xx responds, else dials b.invalid and fails
			if resp != nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
			history = append(history, tr.Snapshot())
		}
		return history
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("injection counters diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestClusterChaosPartitionFailoverBreakers is the deterministic
// partition scenario (no probabilistic rules): the shard owner is
// partitioned away, requests keep succeeding via rendezvous failover or
// degraded local planning, breakers on the owner open and then skip it,
// and after a heal plus cooldown a half-open probe closes them and
// ownership-based routing resumes.
func TestClusterChaosPartitionFailoverBreakers(t *testing.T) {
	h := newChaosHarness(t, 3, 9, func(i int, cfg *Config) {
		cfg.Cluster.ForwardRetries = 1
		cfg.Cluster.MaxFailovers = 1
		cfg.Cluster.BreakerThreshold = 2
		cfg.Cluster.BreakerCooldown = 10 * time.Second
		cfg.Cluster.FailAfter = 1000 // the failure detector stays out of this test
	})
	h.converge(t)
	const sql = "SELECT * WHERE temp > 7"
	// Ask the owner directly, so no entry below holds a copy: each must
	// forward, fail over or degrade.
	code, first := clusterPost[planResponse](t, h.clusterHarness, h.urls[h.ownerIdx(t, sql)], "/v1/plan", planRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("initial plan: status %d", code)
	}
	ownerIdx := h.idxOf(t, first.Node)

	// Cut every link into the owner (its own outbound links stay up;
	// directional partitions are the harder case).
	for i, tr := range h.trs {
		if i != ownerIdx {
			tr.Partition(h.urls[ownerIdx])
		}
	}

	for i, entry := range h.urls {
		if i == ownerIdx {
			continue
		}
		// The entry's own view ranks the failover candidates; whether this
		// entry fails over to the other live node or degrades locally
		// depends on where it ranks itself for this key.
		order := h.srvs[i].cluster.OwnerOrder(first.Key)
		if order[0] != h.urls[ownerIdx] {
			t.Fatalf("entry %d ranks %s first for the key, want the owner %s", i, order[0], h.urls[ownerIdx])
		}
		wantFailover := order[1] != entry // another live node outranks us
		code, pr := clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK {
			t.Fatalf("partitioned request via entry %d: status %d", i, code)
		}
		if wantFailover {
			if pr.Degraded || pr.Node != order[1] {
				t.Fatalf("entry %d: want whole answer failed over to %s, got degraded=%v node=%s", i, order[1], pr.Degraded, pr.Node)
			}
		} else {
			if !pr.Degraded || pr.Cached {
				t.Fatalf("entry %d: want degraded uncached local answer, got degraded=%v cached=%v", i, pr.Degraded, pr.Cached)
			}
		}
		if pr.Plan != first.Plan {
			t.Fatalf("entry %d: partition answer differs from the owner's plan (identical statistics)", i)
		}
		// One request = two failed attempts (retry) = threshold: the
		// entry's breaker on the owner is now open.
		if st := h.srvs[i].breakerStates()[h.urls[ownerIdx]]; st != breakerOpen {
			t.Fatalf("entry %d breaker on owner in state %d after %d failures, want open (%d)", i, st, 2, breakerOpen)
		}
		// The next request must skip the owner without an attempt.
		sentBefore := h.srvs[i].metrics.peer(h.urls[ownerIdx]).forwardsSent.Load()
		skipsBefore := h.srvs[i].metrics.breakerSkips.Load()
		if code, _ := clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql}); code != http.StatusOK {
			t.Fatalf("entry %d second partitioned request: status %d", i, code)
		}
		if sent := h.srvs[i].metrics.peer(h.urls[ownerIdx]).forwardsSent.Load(); sent != sentBefore {
			t.Fatalf("entry %d forwarded to the owner through an open breaker (%d -> %d sends)", i, sentBefore, sent)
		}
		if skips := h.srvs[i].metrics.breakerSkips.Load(); skips != skipsBefore+1 {
			t.Fatalf("entry %d breaker skips %d -> %d, want one more", i, skipsBefore, skips)
		}
	}

	// The open breaker is visible on /metrics as a gauge.
	entryIdx := (ownerIdx + 1) % 3
	resp, err := h.cli.Get(h.urls[entryIdx] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	wantGauge := fmt.Sprintf("acqserved_cluster_breaker_state{peer=%q,meaning=\"open\"} 2", h.urls[ownerIdx])
	if !strings.Contains(string(body), wantGauge) {
		t.Fatalf("metrics missing %q:\n%s", wantGauge, grepLines(string(body), "breaker"))
	}

	// Heal. Breakers stay open until the cooldown elapses: a heal alone
	// must not instantly re-route through a peer that was just failing.
	for _, tr := range h.trs {
		tr.HealAll()
	}
	h.clock.Advance(11 * time.Second)
	for i, entry := range h.urls {
		if i == ownerIdx {
			continue
		}
		// First request after the cooldown is admitted as the half-open
		// probe; its success closes the breaker and the owner answers.
		code, pr := clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK || pr.Degraded || pr.Node != h.urls[ownerIdx] {
			t.Fatalf("entry %d post-heal: status %d degraded=%v node=%s, want whole answer from the owner", i, code, pr.Degraded, pr.Node)
		}
		if st := h.srvs[i].breakerStates()[h.urls[ownerIdx]]; st != breakerClosed {
			t.Fatalf("entry %d breaker on owner still in state %d after a successful probe", i, st)
		}
	}
	h.assertSingleflightRestored(t, 200)
}

// TestClusterBreakerGossipInterplay covers the failure-detector /
// breaker interaction: a partitioned owner is declared dead by
// heartbeat while its breaker is open and cooldown-eligible (half-open
// pending), rendezvous reassigns its keys deterministically, and when
// the peer flaps back the next gossip revives it, the probe closes the
// breaker, and ownership returns. The whole episode is driven twice on
// the same cluster and must replay the same state trajectory — there is
// no wall-clock or RNG anywhere in the loop.
func TestClusterBreakerGossipInterplay(t *testing.T) {
	h := newChaosHarness(t, 3, 5, func(i int, cfg *Config) {
		cfg.Cluster.ForwardRetries = -1 // one attempt per request: breaker/heartbeat arithmetic below
		cfg.Cluster.MaxFailovers = 1
		cfg.Cluster.BreakerThreshold = 1
		cfg.Cluster.BreakerCooldown = 5 * time.Second
		cfg.Cluster.FailAfter = 2
	})
	h.converge(t)
	const sql = "SELECT * WHERE light > 11 AND humid < 8"
	// Ask the owner directly, so the entry holds no copy and must forward.
	code, first := clusterPost[planResponse](t, h.clusterHarness, h.urls[h.ownerIdx(t, sql)], "/v1/plan", planRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("initial plan: status %d", code)
	}
	ownerIdx := h.idxOf(t, first.Node)
	entryIdx := (ownerIdx + 1) % 3
	entry := h.urls[entryIdx]
	ownerURL := h.urls[ownerIdx]

	episode := func() []string {
		var tr []string
		state := func() string {
			st := h.srvs[entryIdx].breakerStates()[ownerURL]
			alive := "alive"
			if d, _ := h.srvs[entryIdx].cluster.Owner(first.Key); d != ownerURL {
				alive = "reassigned"
			}
			return fmt.Sprintf("breaker=%s owner=%s", breakerStateNames[st], alive)
		}
		// Partition the owner in both directions from everyone.
		for i, ctr := range h.trs {
			if i != ownerIdx {
				ctr.Partition(ownerURL)
				h.trs[ownerIdx].Partition(h.urls[i])
			}
		}
		// One failed forward opens the threshold-1 breaker; misses=1 of 2.
		code, pr := clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK {
			t.Fatalf("partitioned request: status %d", code)
		}
		if pr.Node == ownerURL {
			t.Fatalf("partitioned request claims the owner answered")
		}
		tr = append(tr, state())
		// Cooldown elapses: the breaker is half-open-eligible, but before
		// any probe fires the heartbeat declares the owner dead (miss 2 of
		// 2 via the failed gossip exchange).
		h.clock.Advance(6 * time.Second)
		h.srvs[entryIdx].cluster.GossipOnce(context.Background())
		tr = append(tr, state())
		// The dead owner is out of the rendezvous order: requests are
		// whole again without consulting its breaker.
		code, pr = clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK || pr.Degraded {
			t.Fatalf("post-death request: status %d degraded=%v, want whole from the reassigned owner", code, pr.Degraded)
		}
		newOwner, _ := h.srvs[entryIdx].cluster.Owner(first.Key)
		if pr.Node != newOwner || pr.Node == ownerURL {
			t.Fatalf("post-death request answered by %s, want reassigned owner %s", pr.Node, newOwner)
		}
		if pr.Plan != first.Plan {
			t.Fatal("reassigned owner produced a different plan from identical statistics")
		}
		tr = append(tr, state())
		// Flap back: heal, and the next gossip exchange revives the peer
		// (dead members keep being probed).
		for _, ctr := range h.trs {
			ctr.HealAll()
		}
		h.srvs[entryIdx].cluster.GossipOnce(context.Background())
		tr = append(tr, state())
		// Ownership is back; the first forward is the half-open probe and
		// its success closes the breaker.
		code, pr = clusterPost[planResponse](t, h.clusterHarness, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK || pr.Degraded || pr.Node != ownerURL {
			t.Fatalf("post-revival request: status %d degraded=%v node=%s, want the original owner %s", code, pr.Degraded, pr.Node, ownerURL)
		}
		tr = append(tr, state())
		// Leave the cluster converged for the next episode, and drop the
		// copy the revival request left on the entry, so the next episode
		// starts like this one: from an entry that must forward.
		h.clock.Advance(6 * time.Second)
		h.srvs[entryIdx].cache.invalidateBefore(^uint64(0))
		return tr
	}

	want := []string{
		"breaker=open owner=alive",
		"breaker=open owner=reassigned",
		"breaker=open owner=reassigned",
		"breaker=open owner=alive",
		"breaker=closed owner=alive",
	}
	for run := 0; run < 2; run++ {
		got := episode()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d step %d: state %q, want %q (full trace %v)", run, i, got[i], want[i], got)
			}
		}
	}
}

// TestClusterChaosZeroEquivalence pins the p=0 criterion: a cluster
// with chaos transports installed but no active rules answers with the
// same plans, costs, and flags as one with no chaos layer at all, and
// none of the resilience machinery (retries, failovers, breakers,
// budget) ever activates.
func TestClusterChaosZeroEquivalence(t *testing.T) {
	withChaos := newChaosHarness(t, 3, 42, nil)
	plain := newClusterHarness(t, 3, nil)
	withChaos.converge(t)
	plain.converge(t)
	for _, sql := range workload16 {
		for j := range withChaos.urls {
			codeA, a := clusterPost[planResponse](t, withChaos.clusterHarness, withChaos.urls[j], "/v1/plan", planRequest{SQL: sql})
			codeB, b := clusterPost[planResponse](t, plain, plain.urls[j], "/v1/plan", planRequest{SQL: sql})
			if codeA != codeB {
				t.Fatalf("%q via node %d: status %d with idle chaos vs %d without", sql, j, codeA, codeB)
			}
			// Node and Key are topology-dependent (ephemeral ports); every
			// planning-visible field must match exactly.
			if a.Plan != b.Plan || a.PlanB64 != b.PlanB64 || a.ExpectedCost != b.ExpectedCost ||
				a.NaiveCost != b.NaiveCost || a.Splits != b.Splits || a.Degraded != b.Degraded {
				t.Fatalf("%q via node %d: response diverged under idle chaos:\nwith:    %+v\nwithout: %+v", sql, j, a, b)
			}
		}
	}
	for i, srv := range withChaos.srvs {
		m := &srv.metrics
		for name, v := range map[string]int64{
			"forward_retries":        m.forwardRetries.Load(),
			"forward_failovers":      m.forwardFailovers.Load(),
			"retry_budget_exhausted": m.retryBudgetExhausted.Load(),
			"breaker_opens":          m.breakerOpens.Load(),
			"breaker_skips":          m.breakerSkips.Load(),
			"degraded_partition":     m.degradedPartition.Load(),
		} {
			if v != 0 {
				t.Errorf("node %d: %s = %d with idle chaos, want 0", i, name, v)
			}
		}
		s := withChaos.trs[i].Snapshot()
		if s.Dropped+s.Injected+s.Truncated+s.Blocked+s.Delayed != 0 {
			t.Errorf("node %d: idle chaos transport injected something: %+v", i, s)
		}
		if s.Requests != s.Passed {
			t.Errorf("node %d: idle chaos transport perturbed traffic: %+v", i, s)
		}
	}
}
