package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acqp/internal/query"
	"acqp/internal/sql"
)

// clusterHarness is an in-process 3-node planning cluster on loopback
// listeners: real HTTP between the nodes (forwarding and gossip need
// it), manual gossip stepping (GossipInterval 0) so membership changes
// happen exactly when a test says so.
type clusterHarness struct {
	urls  []string
	srvs  []*Server
	https []*http.Server
	cli   *http.Client
	conns []*atomic.Int64 // connections each node has accepted
}

func newClusterHarness(t *testing.T, n int, mod func(i int, cfg *Config)) *clusterHarness {
	t.Helper()
	h := &clusterHarness{cli: &http.Client{Timeout: 10 * time.Second}}
	lns := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		h.urls = append(h.urls, "http://"+ln.Addr().String())
	}
	for i := 0; i < n; i++ {
		sch := testSchema()
		cfg := Config{
			// Identical seeds: every node learns the same statistics, the
			// precondition for byte-identical plans wherever planning runs.
			Schema:  sch,
			History: testHistory(sch, 2000, 42),
			Cluster: &ClusterConfig{
				Self:      h.urls[i],
				Peers:     h.urls,
				FailAfter: 2,
			},
		}
		if mod != nil {
			mod(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.srvs = append(h.srvs, srv)
		conns := new(atomic.Int64)
		hs := &http.Server{Handler: srv, ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		}}
		h.https = append(h.https, hs)
		h.conns = append(h.conns, conns)
		go func(hs *http.Server, ln net.Listener) { _ = hs.Serve(ln) }(hs, lns[i])
	}
	t.Cleanup(func() {
		for _, hs := range h.https {
			_ = hs.Close()
		}
		for _, srv := range h.srvs {
			srv.forwardClient.CloseIdleConnections()
			shutdownServer(t, srv)
		}
		h.cli.CloseIdleConnections()
	})
	return h
}

// converge runs enough manual gossip rounds for every node to see every
// other alive, then requires readiness everywhere.
func (h *clusterHarness) converge(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		for _, srv := range h.srvs {
			srv.cluster.GossipOnce(ctx)
		}
	}
	for i, srv := range h.srvs {
		if ready, reason := srv.cluster.Ready(); !ready {
			t.Fatalf("node %d not ready after convergence: %s", i, reason)
		}
	}
}

// post sends one JSON request over real HTTP and decodes the response.
func clusterPost[T any](t *testing.T, h *clusterHarness, url, path string, body any) (int, T) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := h.cli.Post(url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("POST %s%s: decode %q: %v", url, path, data, err)
	}
	return resp.StatusCode, v
}

func clusterGet[T any](t *testing.T, h *clusterHarness, url, path string) (int, T) {
	t.Helper()
	resp, err := h.cli.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", url, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("GET %s%s: decode %q: %v", url, path, data, err)
	}
	return resp.StatusCode, v
}

// plannerCallsTotal sums primary planner invocations across the cluster.
func (h *clusterHarness) plannerCallsTotal() int64 {
	var total int64
	for _, srv := range h.srvs {
		total += srv.metrics.plannerCalls.Load()
	}
	return total
}

// canonKeyOf is the canonical query key a node routes stmt by.
func canonKeyOf(t *testing.T, stmt string) string {
	t.Helper()
	s := testSchema()
	st, err := sql.Parse(s, stmt)
	if err != nil {
		t.Fatalf("parse %q: %v", stmt, err)
	}
	preds, _ := st.Predicates()
	canon, err := query.Canonical(s, preds)
	if err != nil {
		t.Fatalf("canonicalize %q: %v", stmt, err)
	}
	return canon.Key()
}

// ownerIdx is the harness index of the node that owns stmt's key in
// node 0's membership view, found without sending stmt anywhere, so no
// node picks up a copy of the answer.
func (h *clusterHarness) ownerIdx(t *testing.T, stmt string) int {
	t.Helper()
	owner, _ := h.srvs[0].cluster.Owner(canonKeyOf(t, stmt))
	for i, u := range h.urls {
		if u == owner {
			return i
		}
	}
	t.Fatalf("owner %q of %q is not a harness node", owner, stmt)
	return -1
}

// cacheView lists a node's plan-cache entries as canonical query key ->
// planner: "" for an entry planned on the node itself, the owner's URL
// for a copy of the owner's answer.
func cacheView(srv *Server) map[string]string {
	srv.cache.mu.Lock()
	defer srv.cache.mu.Unlock()
	view := map[string]string{}
	for _, e := range srv.cache.entriesLocked() {
		_, route, _ := strings.Cut(e.key, "|")
		view[route] = e.outcome.planner
	}
	return view
}

// entriesLocked lists the cache's entries, planned ones first, each
// list most recently used first. Callers hold c.mu.
func (c *lruCache) entriesLocked() []*cacheEntry {
	var es []*cacheEntry
	for _, l := range []*list.List{c.ll, c.copies} {
		for el := l.Front(); el != nil; el = el.Next() {
			es = append(es, el.Value.(*cacheEntry))
		}
	}
	return es
}

// checkOwnerOnlyPlanning requires the cluster's caches to hold exactly
// one planned entry per key, on the key's owner (owners maps canonical
// key -> owner URL), and every other entry to be a copy naming that
// owner. It returns the number of copies.
func (h *clusterHarness) checkOwnerOnlyPlanning(t *testing.T, owners map[string]string) int {
	t.Helper()
	planned, copies := map[string]int{}, 0
	for i, srv := range h.srvs {
		for route, planner := range cacheView(srv) {
			owner, ok := owners[route]
			switch {
			case !ok:
				t.Errorf("node %d caches unexpected key %q", i, route)
			case planner == "" && h.urls[i] != owner:
				t.Errorf("node %d holds a planned entry for %q, owned by %s", i, route, owner)
			case planner == "":
				planned[route]++
			case planner != owner || h.urls[i] == owner:
				t.Errorf("node %d holds a copy of %q naming %s; the owner is %s", i, route, planner, owner)
			default:
				copies++
			}
		}
	}
	for route := range owners {
		if planned[route] != 1 {
			t.Errorf("key %q is planned in %d caches, want exactly its owner's", route, planned[route])
		}
	}
	return copies
}

// TestClusterByteIdenticalAnySingleflight pins two cluster invariants at
// once: every workload query returns a byte-identical plan no matter
// which node receives it, and the whole 3-node cluster runs exactly one
// planner invocation per distinct canonical query.
func TestClusterByteIdenticalAnySingleflight(t *testing.T) {
	h := newClusterHarness(t, 3, nil)
	h.converge(t)
	owners := map[string]string{}
	for _, sql := range workload16 {
		var plans []planResponse
		for _, url := range h.urls {
			code, pr := clusterPost[planResponse](t, h, url, "/v1/plan", planRequest{SQL: sql})
			if code != http.StatusOK {
				t.Fatalf("query %q via %s: status %d", sql, url, code)
			}
			if pr.Degraded {
				t.Fatalf("query %q via %s: degraded with all nodes up", sql, url)
			}
			if pr.Node == "" {
				t.Fatalf("query %q via %s: clustered response missing node attribution", sql, url)
			}
			plans = append(plans, pr)
			owners[pr.Key] = pr.Node
		}
		for i := 1; i < len(plans); i++ {
			if plans[i].Plan != plans[0].Plan || plans[i].PlanB64 != plans[0].PlanB64 {
				t.Fatalf("query %q: plan differs by entry node\nvia %s:\n%s\nvia %s:\n%s",
					sql, h.urls[0], plans[0].Plan, h.urls[i], plans[i].Plan)
			}
			if plans[i].Node != plans[0].Node {
				t.Errorf("query %q: planned on %s and on %s; one owner expected", sql, plans[0].Node, plans[i].Node)
			}
		}
	}
	if calls := h.plannerCallsTotal(); calls != workload16Distinct {
		t.Errorf("cluster ran the planner %d times for %d distinct queries; cluster-wide singleflight broken",
			calls, workload16Distinct)
	}
	// Each distinct key is planned into exactly one cache, its owner's;
	// each of the two other nodes forwarded it once and kept a copy.
	if copies := h.checkOwnerOnlyPlanning(t, owners); copies != 2*workload16Distinct {
		t.Errorf("cluster holds %d copies for %d distinct queries, want one on each non-owner", copies, workload16Distinct)
	}
}

// TestClusterConcurrentWorkload is the scaled version: 64 clients hit
// random nodes with the shuffled workload concurrently (the race
// detector watching), and the cluster still plans each distinct query
// exactly once.
func TestClusterConcurrentWorkload(t *testing.T) {
	h := newClusterHarness(t, 3, func(i int, cfg *Config) {
		cfg.Workers = 4
		cfg.QueueDepth = 256
	})
	h.converge(t)
	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 7))
			order := rng.Perm(len(workload16))
			for _, qi := range order {
				url := h.urls[rng.Intn(len(h.urls))]
				raw, _ := json.Marshal(planRequest{SQL: workload16[qi]})
				resp, err := h.cli.Post(url+"/v1/plan", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- fmt.Errorf("client %d: %v", c, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: query %q via %s: status %d: %s", c, workload16[qi], url, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if calls := h.plannerCallsTotal(); calls != workload16Distinct {
		t.Errorf("cluster ran the planner %d times under the concurrent workload, want %d", calls, workload16Distinct)
	}
}

// TestClusterEpochGossipPurgesPeers drives the coherence story end to
// end: caches populated cluster-wide, a forced refresh on one node bumps
// its epoch, and one gossip push advances every peer's epoch and purges
// every peer's cache.
func TestClusterEpochGossipPurgesPeers(t *testing.T) {
	h := newClusterHarness(t, 3, nil)
	h.converge(t)
	for _, url := range h.urls {
		for _, sql := range workload16 {
			if code, _ := clusterPost[planResponse](t, h, url, "/v1/plan", planRequest{SQL: sql}); code != http.StatusOK {
				t.Fatalf("populate via %s: status %d", url, code)
			}
		}
	}
	var before int
	for _, url := range h.urls {
		_, st := clusterGet[statsResponse](t, h, url, "/v1/stats")
		if st.Epoch != 1 {
			t.Fatalf("node %s at epoch %d before refresh, want 1", url, st.Epoch)
		}
		before += st.CacheEntries
	}
	// One planned entry per key on its owner plus a copy on each other
	// node: the purge below must reach the copies too.
	if before != 3*workload16Distinct {
		t.Fatalf("cluster holds %d cache entries before refresh, want %d (one planned, two copies per key)", before, 3*workload16Distinct)
	}

	code, rr := clusterPost[refreshResponse](t, h, h.urls[0], "/v1/refresh", refreshRequest{Force: true})
	if code != http.StatusOK || !rr.Refreshed || rr.Epoch != 2 {
		t.Fatalf("forced refresh: status %d, %+v", code, rr)
	}
	// One manual push from the refreshed node (the background loop would
	// do this via Poke) must carry epoch 2 everywhere.
	h.srvs[0].cluster.GossipOnce(context.Background())
	for i, url := range h.urls {
		_, st := clusterGet[statsResponse](t, h, url, "/v1/stats")
		if st.Epoch != 2 {
			t.Errorf("node %d epoch %d after gossip, want 2", i, st.Epoch)
		}
		if st.CacheEntries != 0 {
			t.Errorf("node %d still holds %d cache entries (planned or copied) under epoch 1", i, st.CacheEntries)
		}
	}
	// The bump is attributed on the peers' metrics.
	for _, url := range h.urls[1:] {
		resp, err := h.cli.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), "acqserved_cluster_epoch_bumps 1") {
			t.Errorf("node %s metrics missing the epoch bump:\n%s", url, grepLines(string(body), "cluster"))
		}
		if !strings.Contains(string(body), fmt.Sprintf("acqserved_cluster_epoch_bumps_received{peer=%q} 1", h.urls[0])) {
			t.Errorf("node %s metrics missing the per-peer bump attribution:\n%s", url, grepLines(string(body), "cluster"))
		}
	}
}

// grepLines filters a blob to lines containing substr, for readable
// failure output.
func grepLines(s, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestClusterPartitionDegraded pins the partition story in its minimal
// form — retries and failover disabled, so one forward is one attempt:
// with the shard owner unreachable the entry node answers locally with
// degraded=true and never caches; once the failure detector declares
// the owner dead, ownership moves and responses are whole again. (The
// resilient path — retries, rendezvous failover, breakers — is pinned
// by the chaos suite in cluster_chaos_test.go.)
func TestClusterPartitionDegraded(t *testing.T) {
	h := newClusterHarness(t, 3, func(i int, cfg *Config) { // FailAfter 2 from the harness default
		cfg.Cluster.ForwardRetries = -1
		cfg.Cluster.MaxFailovers = -1
	})
	h.converge(t)
	const sql = "SELECT * WHERE temp > 7"
	// Ask the owner directly, so the entry node below holds no copy and
	// must forward.
	code, first := clusterPost[planResponse](t, h, h.urls[h.ownerIdx(t, sql)], "/v1/plan", planRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("initial plan: status %d", code)
	}
	ownerIdx := -1
	for i, url := range h.urls {
		if url == first.Node {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("response node %q is not a cluster member", first.Node)
	}
	entryIdx := (ownerIdx + 1) % len(h.urls)
	entry := h.urls[entryIdx]

	// Partition the owner (transport down, process up — exactly what a
	// network partition looks like to its peers).
	_ = h.https[ownerIdx].Close()

	for attempt := 0; attempt < 2; attempt++ {
		code, pr := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: sql})
		if code != http.StatusOK {
			t.Fatalf("partition attempt %d: status %d, want a degraded 200, not an error", attempt, code)
		}
		if !pr.Degraded {
			t.Fatalf("partition attempt %d: response not marked degraded", attempt)
		}
		if pr.Cached {
			t.Fatalf("partition attempt %d: degraded response served from cache", attempt)
		}
		if pr.Plan != first.Plan || pr.PlanB64 != first.PlanB64 {
			t.Fatalf("partition attempt %d: degraded local plan differs from the owner's (same statistics)", attempt)
		}
	}
	// Degraded outcomes must not have entered the entry node's cache.
	_, st := clusterGet[statsResponse](t, h, entry, "/v1/stats")
	if st.CacheEntries != 0 {
		t.Fatalf("entry node cached %d entries during the partition; degraded plans must never be cached", st.CacheEntries)
	}
	// Two failed forwards == FailAfter: the owner is now dead and the key
	// has a new owner among the live nodes, so the next answer is whole.
	code, pr := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: sql})
	if code != http.StatusOK {
		t.Fatalf("post-detection plan: status %d", code)
	}
	if pr.Degraded {
		t.Fatal("owner declared dead but responses still degraded; ownership did not move")
	}
	if pr.Node == h.urls[ownerIdx] {
		t.Fatalf("key still owned by the dead node %s", pr.Node)
	}
	if pr.Plan != first.Plan {
		t.Fatal("reassigned owner produced a different plan from identical statistics")
	}
	// The partition left its trail on the entry node's metrics.
	resp, err := h.cli.Get(entry + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "acqserved_cluster_degraded_partition 2") {
		t.Errorf("entry metrics missing degraded-partition count:\n%s", grepLines(string(body), "cluster"))
	}
	if !strings.Contains(string(body), fmt.Sprintf("acqserved_cluster_forward_failures{peer=%q} 2", h.urls[ownerIdx])) {
		t.Errorf("entry metrics missing per-peer forward failures:\n%s", grepLines(string(body), "cluster"))
	}
}

// TestClusterReadyz pins the liveness/readiness split: /healthz is 200
// from the first instant, /readyz refuses traffic until the node has
// joined and resolved every peer, then turns 200 after convergence.
func TestClusterReadyz(t *testing.T) {
	h := newClusterHarness(t, 3, nil)
	type ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	for i, url := range h.urls {
		if code, _ := clusterGet[map[string]any](t, h, url, "/healthz"); code != http.StatusOK {
			t.Errorf("node %d /healthz = %d before join, want 200 (liveness is not readiness)", i, code)
		}
		code, r := clusterGet[ready](t, h, url, "/readyz")
		if code != http.StatusServiceUnavailable || r.Ready {
			t.Errorf("node %d /readyz = %d %+v before any gossip, want 503 not-ready", i, code, r)
		}
		if !strings.Contains(r.Reason, "joining") {
			t.Errorf("node %d not-ready reason %q does not explain the join state", i, r.Reason)
		}
	}
	h.converge(t)
	for i, url := range h.urls {
		if code, r := clusterGet[ready](t, h, url, "/readyz"); code != http.StatusOK || !r.Ready {
			t.Errorf("node %d /readyz = %d %+v after convergence, want 200 ready", i, code, r)
		}
	}
	// Introspection sees the full membership from every node.
	for i, url := range h.urls {
		type info struct {
			Self    string `json:"self"`
			Members []struct {
				URL   string `json:"url"`
				State string `json:"state"`
			} `json:"members"`
		}
		_, ci := clusterGet[info](t, h, url, "/v1/cluster")
		if ci.Self != url || len(ci.Members) != 3 {
			t.Errorf("node %d introspection: self=%q members=%d, want self=%q members=3", i, ci.Self, len(ci.Members), url)
		}
		for _, m := range ci.Members {
			if m.State != "alive" {
				t.Errorf("node %d sees %s in state %q after convergence", i, m.URL, m.State)
			}
		}
	}
}

// TestStandaloneReadyz pins that an unclustered server is ready the
// moment it serves, and /v1/plan responses carry no cluster fields.
func TestStandaloneReadyz(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	w := getPath(t, srv, "/readyz")
	if w.Code != http.StatusOK {
		t.Fatalf("/readyz = %d standalone, want 200", w.Code)
	}
	pw := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"})
	pr := decodeResp[planResponse](t, pw)
	if pr.Node != "" || pr.Forwarded {
		t.Errorf("standalone response carries cluster fields: node=%q forwarded=%v", pr.Node, pr.Forwarded)
	}
}
