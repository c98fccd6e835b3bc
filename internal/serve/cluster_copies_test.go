package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"acqp/internal/cluster"
)

// The copy invariant: planning is owner-only, caching is not. A node
// that forwarded a key keeps a copy of the owner's whole answer at the
// owner's epoch and answers the key's later hits from it — while that
// owner still owns the key, and never for an answer that is degraded,
// fault-injected, uncached, from a failover deputy, or at another epoch.

// elapsedMember matches the one timing member of a /v1/plan body.
var elapsedMember = regexp.MustCompile(`"elapsed_ms":[^,}]+`)

// withoutElapsed blanks a /v1/plan body's elapsed_ms, the only member
// that differs between two answers to one request ID.
func withoutElapsed(body []byte) string {
	return elapsedMember.ReplaceAllString(string(body), `"elapsed_ms":0`)
}

// withoutPerRequest decodes an answer and drops its per-request members.
func withoutPerRequest(m map[string]any) map[string]any {
	delete(m, "request_id")
	delete(m, "elapsed_ms")
	return m
}

// sameOwnerPair returns the first two workload statements with distinct
// keys and one owner, plus that owner's index.
func (h *clusterHarness) sameOwnerPair(t *testing.T) (a, b string, owner int) {
	t.Helper()
	seen := map[int]string{}
	keys := map[string]bool{}
	for _, stmt := range workload16 {
		k := canonKeyOf(t, stmt)
		if keys[k] {
			continue
		}
		keys[k] = true
		o := h.ownerIdx(t, stmt)
		if first, ok := seen[o]; ok {
			return first, stmt, o
		}
		seen[o] = stmt
	}
	t.Fatal("no two workload keys share an owner")
	return "", "", -1
}

// fastHit reports whether srv's fast path replays body (nothing else in
// the request is consulted on a replay).
func fastHit(srv *Server, body string) bool {
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	return srv.serveFast(httptest.NewRecorder(), req, time.Now())
}

func TestClusterCopies(t *testing.T) {
	const stmt = "SELECT * WHERE temp > 7 AND light > 11"

	t.Run("second request stays local", func(t *testing.T) {
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		o := h.ownerIdx(t, stmt)
		e := (o + 1) % 3
		owner, entry := h.urls[o], h.urls[e]
		code, first := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: stmt})
		if code != http.StatusOK || !first.Forwarded || first.Node != owner {
			t.Fatalf("first request: status %d forwarded=%v node=%s, want a forward to %s", code, first.Forwarded, first.Node, owner)
		}
		if got := cacheView(h.srvs[e])[first.Key]; got != owner {
			t.Fatalf("entry's cache names %q for the key, want a copy naming %s", got, owner)
		}
		sent := h.srvs[e].metrics.peer(owner).forwardsSent.Load()
		calls := h.plannerCallsTotal()
		code, second := clusterPost[map[string]any](t, h, entry, "/v1/plan", planRequest{SQL: stmt})
		if code != http.StatusOK {
			t.Fatalf("second request: status %d", code)
		}
		if now := h.srvs[e].metrics.peer(owner).forwardsSent.Load(); now != sent {
			t.Errorf("second request forwarded again (%d -> %d sends)", sent, now)
		}
		if now := h.plannerCallsTotal(); now != calls {
			t.Errorf("second request ran the planner (%d -> %d calls)", calls, now)
		}
		if second["cached"] != true || second["node"] != owner || second["forwarded"] != nil {
			t.Errorf("copy answer: cached=%v node=%v forwarded=%v, want cached, the owner, no forwarded member",
				second["cached"], second["node"], second["forwarded"])
		}
		// The copy answers exactly as the owner answers its own hit.
		_, direct := clusterPost[map[string]any](t, h, owner, "/v1/plan", planRequest{SQL: stmt})
		if a, b := withoutPerRequest(second), withoutPerRequest(direct); !reflect.DeepEqual(a, b) {
			t.Errorf("copy answer differs from the owner's own hit:\ncopy:  %v\nowner: %v", a, b)
		}
	})

	t.Run("fast path matches slow path", func(t *testing.T) {
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		o := h.ownerIdx(t, stmt)
		e := (o + 1) % 3
		body := `{"sql":"` + stmt + `"}`
		id := map[string]string{"X-Request-Id": "cluster-fast-1"}
		for _, c := range []struct {
			name string
			srv  *Server
			node string
		}{{"non-owner copy", h.srvs[e], h.urls[o]}, {"owner entry", h.srvs[o], h.urls[o]}} {
			if c.srv == h.srvs[e] {
				// Fetch the copy: the first request at a non-owner forwards.
				if w := postRaw(t, c.srv, "/v1/plan", body, nil); w.Code != http.StatusOK {
					t.Fatalf("%s: first request status %d", c.name, w.Code)
				}
			}
			slow := postRaw(t, c.srv, "/v1/plan", body, id) // regular-path hit, fills the slot
			if !fastHit(c.srv, body) {
				t.Fatalf("%s: no replay slot after a regular-path hit", c.name)
			}
			fast := postRaw(t, c.srv, "/v1/plan", body, id)
			if slow.Code != http.StatusOK || fast.Code != http.StatusOK {
				t.Fatalf("%s: status slow=%d fast=%d", c.name, slow.Code, fast.Code)
			}
			if s, f := withoutElapsed(slow.Body.Bytes()), withoutElapsed(fast.Body.Bytes()); s != f {
				t.Errorf("%s: fast answer differs from slow:\n slow: %s\n fast: %s", c.name, s, f)
			}
			pr := decodeResp[planResponse](t, fast)
			if !pr.Cached || pr.Forwarded || pr.Node != c.node || pr.RequestID != "cluster-fast-1" {
				t.Errorf("%s: fast answer cached=%v forwarded=%v node=%s id=%s", c.name, pr.Cached, pr.Forwarded, pr.Node, pr.RequestID)
			}
		}
	})

	t.Run("nothing stored but whole owner answers", func(t *testing.T) {
		h := newClusterHarness(t, 3, func(i int, cfg *Config) {
			cfg.ExhaustiveBudget = 1 // exhaustive requests degrade to a sequential plan
			cfg.Cluster.RetryBackoff = time.Millisecond
		})
		h.converge(t)
		noCopy := func(name, stmt string, req planRequest, e int) planResponse {
			t.Helper()
			req.SQL = stmt
			code, pr := clusterPost[planResponse](t, h, h.urls[e], "/v1/plan", req)
			if code != http.StatusOK || !pr.Forwarded {
				t.Fatalf("%s: status %d forwarded=%v, want a forwarded 200", name, code, pr.Forwarded)
			}
			if planner, ok := cacheView(h.srvs[e])[pr.Key]; ok {
				t.Errorf("%s: entry cached the answer (planner %q)", name, planner)
			}
			return pr
		}
		nonOwner := func(stmt string) int { return (h.ownerIdx(t, stmt) + 1) % 3 }
		a := "SELECT * WHERE hour >= 18 AND temp > 9"
		if pr := noCopy("degraded", a, planRequest{Planner: "exhaustive"}, nonOwner(a)); !pr.Degraded {
			t.Errorf("degraded: owner's answer not degraded; the case is vacuous")
		}
		b := "SELECT * WHERE humid = 5"
		noCopy("faults", b, planRequest{Faults: &faultSpec{Seed: 3, PFail: 0.2}}, nonOwner(b))
		c := "SELECT * WHERE light < 4 AND hour <= 11"
		noCopy("no_cache", c, planRequest{NoCache: true}, nonOwner(c))

		// Another epoch: the owner refreshed and the news has not arrived.
		d := "SELECT * WHERE temp <= 3 AND hour BETWEEN 0 AND 5"
		od := h.ownerIdx(t, d)
		if code, rr := clusterPost[refreshResponse](t, h, h.urls[od], "/v1/refresh", refreshRequest{Force: true}); code != http.StatusOK || rr.Epoch != 2 {
			t.Fatalf("owner refresh: status %d %+v", code, rr)
		}
		if pr := noCopy("epoch mismatch", d, planRequest{}, (od+1)%3); pr.Epoch != 2 || h.srvs[(od+1)%3].Epoch() != 1 {
			t.Errorf("epoch mismatch: answer at %d, entry at %d; the case is vacuous", pr.Epoch, h.srvs[(od+1)%3].Epoch())
		}

		// A failover deputy: the owner is partitioned, and the entry ranks
		// third, so the answer comes from the second-ranked node.
		f := "SELECT * WHERE temp BETWEEN 4 AND 11"
		order := h.srvs[0].cluster.OwnerOrder(canonKeyOf(t, f))
		ranks := map[string]int{}
		for i, u := range h.urls {
			ranks[u] = i
		}
		_ = h.https[ranks[order[0]]].Close()
		if pr := noCopy("failover", f, planRequest{}, ranks[order[2]]); pr.Node != order[1] || pr.Degraded {
			t.Errorf("failover: answered by %s degraded=%v, want a whole answer from the deputy %s", pr.Node, pr.Degraded, order[1])
		}
	})

	t.Run("no copy after ownership moves", func(t *testing.T) {
		// Both non-owners hold copies of two keys of one owner, one key
		// with a replay slot. Then each declares the owner dead. For each
		// key one of them is now the owner and the other forwards to it;
		// neither may answer from the old owner's copy, on either path.
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		slotted, copied, o := h.sameOwnerPair(t)
		owner := h.urls[o]
		slotBody, copyBody := `{"sql":"`+slotted+`"}`, `{"sql":"`+copied+`"}`
		entries := []int{(o + 1) % 3, (o + 2) % 3}
		for _, e := range entries {
			for i := 0; i < 3; i++ { // forward, regular-path copy hit, replay
				if w := postRaw(t, h.srvs[e], "/v1/plan", slotBody, nil); w.Code != http.StatusOK {
					t.Fatalf("node %d warm-up %d: status %d", e, i, w.Code)
				}
			}
			if w := postRaw(t, h.srvs[e], "/v1/plan", copyBody, nil); w.Code != http.StatusOK {
				t.Fatalf("node %d copy-only key: status %d", e, w.Code)
			}
			if !fastHit(h.srvs[e], slotBody) {
				t.Fatalf("node %d: no replay slot for the copy before ownership moved", e)
			}
		}
		for _, e := range entries {
			for i := 0; i < 2; i++ { // FailAfter 2: the node declares the owner dead
				h.srvs[e].cluster.ReportFailure(owner)
			}
		}
		for _, e := range entries {
			if fastHit(h.srvs[e], slotBody) {
				t.Errorf("node %d: fast path replayed a copy whose planner no longer owns the key", e)
			}
			code, ex := clusterPost[executeResponse](t, h, h.urls[e], "/v1/execute", planRequest{SQL: copied})
			if code != http.StatusOK || ex.Cached {
				t.Errorf("node %d: /v1/execute status %d cached=%v, want the old owner's copy not run", e, code, ex.Cached)
			}
		}
		for _, e := range entries {
			for _, body := range []string{copyBody, slotBody} {
				pr := decodeResp[planResponse](t, postRaw(t, h.srvs[e], "/v1/plan", body, nil))
				if newOwner, _ := h.srvs[e].cluster.Owner(pr.Key); pr.Node != newOwner || pr.Node == owner {
					t.Errorf("node %d %s: answered as planned by %s; the key moved to %s", e, body, pr.Node, newOwner)
				}
			}
		}
		for _, e := range entries {
			for _, stmt := range []string{copied, slotted} {
				if got := cacheView(h.srvs[e])[canonKeyOf(t, stmt)]; got == owner {
					t.Errorf("node %d still holds the old owner's copy of %q", e, stmt)
				}
			}
		}
	})

	t.Run("partition answers from the copy", func(t *testing.T) {
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		o := h.ownerIdx(t, stmt)
		e := (o + 1) % 3
		owner, srv := h.urls[o], h.srvs[e]
		body := `{"sql":"` + stmt + `"}`
		if w := postRaw(t, srv, "/v1/plan", body, nil); w.Code != http.StatusOK {
			t.Fatalf("first request: status %d", w.Code)
		}
		_ = h.https[o].Close()
		sent := srv.metrics.peer(owner).forwardsSent.Load()
		for i, path := range []string{"regular", "fast"} {
			w := postRaw(t, srv, "/v1/plan", body, nil)
			pr := decodeResp[planResponse](t, w)
			if w.Code != http.StatusOK || pr.Degraded || !pr.Cached || pr.Forwarded || pr.Node != owner {
				t.Errorf("%s path %d under partition: status %d degraded=%v cached=%v forwarded=%v node=%s, want the copy",
					path, i, w.Code, pr.Degraded, pr.Cached, pr.Forwarded, pr.Node)
			}
		}
		if now := srv.metrics.peer(owner).forwardsSent.Load(); now != sent {
			t.Errorf("entry holding a copy attempted %d forwards to the partitioned owner", now-sent)
		}
		if n := srv.metrics.degradedPartition.Load(); n != 0 {
			t.Errorf("entry holding a copy degraded %d answers", n)
		}
		// The copy answers only until an exchange with the owner fails:
		// from then on the owner may have refreshed unseen, so the entry
		// asks it again, on either path.
		srv.cluster.GossipOnce(context.Background())
		if fastHit(srv, body) {
			t.Error("fast path replayed the copy after an exchange with its owner failed")
		}
		pr := decodeResp[planResponse](t, postRaw(t, srv, "/v1/plan", body, nil))
		if srv.metrics.peer(owner).forwardsSent.Load() == sent {
			t.Error("no forward attempt after an exchange with the owner failed")
		}
		if pr.Node == owner {
			t.Errorf("answered as planned by the unreachable owner: cached=%v forwarded=%v", pr.Cached, pr.Forwarded)
		}
	})

	t.Run("owner refresh reaches copies by gossip", func(t *testing.T) {
		// The window a copy can lag its owner: from the owner's refresh to
		// the next gossip exchange (a refresh pokes one at once). Inside
		// it the copy answers at the old epoch, and says so; after it the
		// copy is gone and the entry fetches the new answer.
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		o := h.ownerIdx(t, stmt)
		e := (o + 1) % 3
		entry := h.urls[e]
		if code, _ := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: stmt}); code != http.StatusOK {
			t.Fatalf("first request: status %d", code)
		}
		if code, rr := clusterPost[refreshResponse](t, h, h.urls[o], "/v1/refresh", refreshRequest{Force: true}); code != http.StatusOK || rr.Epoch != 2 {
			t.Fatalf("owner refresh: status %d %+v", code, rr)
		}
		_, stale := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: stmt})
		if !stale.Cached || stale.Forwarded || stale.Epoch != 1 {
			t.Errorf("before gossip: cached=%v forwarded=%v epoch %d, want the copy at epoch 1", stale.Cached, stale.Forwarded, stale.Epoch)
		}
		h.srvs[o].cluster.GossipOnce(context.Background())
		_, fresh := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: stmt})
		if !fresh.Forwarded || fresh.Epoch != 2 {
			t.Errorf("after gossip: forwarded=%v epoch %d, want the owner's answer at epoch 2", fresh.Forwarded, fresh.Epoch)
		}
		_, again := clusterPost[planResponse](t, h, entry, "/v1/plan", planRequest{SQL: stmt})
		if !again.Cached || again.Forwarded || again.Epoch != 2 {
			t.Errorf("repeat: cached=%v forwarded=%v epoch %d, want a copy at epoch 2", again.Cached, again.Forwarded, again.Epoch)
		}
	})

	t.Run("copies never evict planned entries", func(t *testing.T) {
		// Three 4-entry caches and twelve keys, four per owner: every
		// owner's shard fits its cache, but no node can hold every key.
		// Sending each key to every node twice must plan each key once —
		// copies fill only what the owners' planned entries leave free.
		const per = 4
		h := newClusterHarness(t, 3, func(i int, cfg *Config) { cfg.CacheSize = per })
		h.converge(t)
		var stmts []string
		owners := map[string]string{}
		shard := map[int]int{}
		for a := 0; a < 15 && len(stmts) < 3*per; a++ {
			for b := 0; b < 15 && len(stmts) < 3*per; b++ {
				stmt := fmt.Sprintf("SELECT * WHERE temp > %d AND light > %d", a, b)
				o := h.ownerIdx(t, stmt)
				if k := canonKeyOf(t, stmt); owners[k] == "" && shard[o] < per {
					owners[k] = h.urls[o]
					shard[o]++
					stmts = append(stmts, stmt)
				}
			}
		}
		if len(stmts) != 3*per {
			t.Fatalf("found %d keys of %d", len(stmts), 3*per)
		}
		for round := 0; round < 2; round++ {
			for _, stmt := range stmts {
				for _, u := range h.urls {
					if code, _ := clusterPost[planResponse](t, h, u, "/v1/plan", planRequest{SQL: stmt}); code != http.StatusOK {
						t.Fatalf("round %d %q at %s: status %d", round, stmt, u, code)
					}
				}
			}
		}
		if calls := h.plannerCallsTotal(); calls != int64(len(stmts)) {
			t.Errorf("%d planner runs for %d keys: copies evicted planned entries", calls, len(stmts))
		}
		h.checkOwnerOnlyPlanning(t, owners)
	})

	t.Run("execute runs the copy", func(t *testing.T) {
		h := newClusterHarness(t, 3, nil)
		h.converge(t)
		o := h.ownerIdx(t, stmt)
		e := (o + 1) % 3
		if code, _ := clusterPost[planResponse](t, h, h.urls[e], "/v1/plan", planRequest{SQL: stmt}); code != http.StatusOK {
			t.Fatalf("plan: status %d", code)
		}
		calls := h.srvs[e].metrics.plannerCalls.Load()
		code, got := clusterPost[executeResponse](t, h, h.urls[e], "/v1/execute", planRequest{SQL: stmt})
		if code != http.StatusOK {
			t.Fatalf("execute at the non-owner: status %d", code)
		}
		if !got.Cached || h.srvs[e].metrics.plannerCalls.Load() != calls {
			t.Errorf("execute at the non-owner did not run the copy: cached=%v", got.Cached)
		}
		code, want := clusterPost[executeResponse](t, h, h.urls[o], "/v1/execute", planRequest{SQL: stmt})
		if code != http.StatusOK {
			t.Fatalf("execute at the owner: status %d", code)
		}
		if got.MeanCost != want.MeanCost || got.PlanB64 != want.PlanB64 || got.Selected != want.Selected {
			t.Errorf("execute via copy: mean_cost %v plan %s selected %d; owner: %v %s %d",
				got.MeanCost, got.PlanB64, got.Selected, want.MeanCost, want.PlanB64, want.Selected)
		}
	})
}

// TestClusterForwardsReuseConnections pins the cluster client's own
// transport: concurrent forwards to one owner reuse pooled connections.
// Fault what-ifs are never kept as copies, so every request forwards;
// http.DefaultTransport keeps two idle connections per peer and would
// dial most of these forwards anew.
func TestClusterForwardsReuseConnections(t *testing.T) {
	const stmt = "SELECT * WHERE temp > 7 AND light > 11"
	const clients, per = 16, 100
	h := newClusterHarness(t, 3, nil)
	h.converge(t)
	o := h.ownerIdx(t, stmt)
	srv := h.srvs[(o+1)%3]
	body := `{"sql":"` + stmt + `","faults":{"seed":3,"p_fail":0.2}}`
	before := h.conns[o].Load()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
				if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"forwarded":true`) {
					t.Errorf("status %d, want a forwarded 200: %s", w.Code, w.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if dialed := h.conns[o].Load() - before; dialed > 2*clients {
		t.Errorf("%d forwards from %d clients opened %d connections to the owner, want at most %d", clients*per, clients, dialed, 2*clients)
	}
}

// TestClusterEpochsCannotWrap replays the stale-plan sequence a peer's
// digest could drive: (1) a digest claims the largest epoch there is and
// a query is planned and cached; (2) a forced refresh installs new
// statistics and gossip spreads it; (3) the digest arrives again. If the
// claim were adopted the refresh would wrap the epoch to 0, purge
// nothing, and step 3 would make the entry planned on the superseded
// statistics current again. It must instead be re-planned, on the owner
// and on a non-owner that held a copy.
func TestClusterEpochsCannotWrap(t *testing.T) {
	const stmt = "SELECT * WHERE temp > 7"
	for _, role := range []string{"owner", "non-owner"} {
		t.Run(role, func(t *testing.T) {
			h := newClusterHarness(t, 3, nil)
			h.converge(t)
			idx := h.ownerIdx(t, stmt)
			if role == "non-owner" {
				idx = (idx + 1) % 3
			}
			node := h.urls[idx]
			claim := map[string]any{
				"from":    h.urls[0],
				"members": []map[string]any{{"url": h.urls[0], "epoch": uint64(math.MaxUint64)}},
			}
			poison := func() {
				t.Helper()
				for _, u := range h.urls {
					if code, _ := clusterPost[map[string]any](t, h, u, "/v1/cluster/gossip", claim); code != http.StatusOK {
						t.Fatalf("gossip to %s: status %d", u, code)
					}
				}
			}
			poison()
			if code, _ := clusterPost[planResponse](t, h, node, "/v1/plan", planRequest{SQL: stmt}); code != http.StatusOK {
				t.Fatalf("plan: status %d", code)
			}
			if code, _ := clusterPost[refreshResponse](t, h, node, "/v1/refresh", refreshRequest{Force: true}); code != http.StatusOK {
				t.Fatalf("refresh: status %d", code)
			}
			h.srvs[idx].cluster.GossipOnce(context.Background())
			poison()
			code, pr := clusterPost[planResponse](t, h, node, "/v1/plan", planRequest{SQL: stmt})
			if code != http.StatusOK {
				t.Fatalf("replay: status %d", code)
			}
			if pr.Cached {
				t.Fatalf("entry planned on superseded statistics answered cached at epoch %d", pr.Epoch)
			}
			if pr.Epoch != 2 {
				t.Errorf("answer at epoch %d, want 2: one refresh since the start", pr.Epoch)
			}
		})
	}
}

// TestRefreshAtEpochCeiling pins the loud failure: at the ceiling a
// forced refresh answers an error and purges nothing, and epochs above
// the ceiling are never installed.
func TestRefreshAtEpochCeiling(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	for _, e := range []uint64{cluster.EpochCeiling + 1, math.MaxUint64} {
		if got, purged := srv.AdvanceTo(e, ""); got != 1 || purged != 0 {
			t.Fatalf("AdvanceTo(%d) = %d, %d; want ignored", e, got, purged)
		}
	}
	if got, _ := srv.AdvanceTo(cluster.EpochCeiling, ""); got != cluster.EpochCeiling {
		t.Fatalf("AdvanceTo(ceiling) = %d", got)
	}
	req := planRequest{SQL: "SELECT * WHERE temp > 7"}
	postJSON(t, srv, "/v1/plan", req)
	w := postJSON(t, srv, "/v1/refresh", refreshRequest{Force: true})
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "ceiling") {
		t.Fatalf("refresh at the ceiling: status %d %s, want a 500 naming the ceiling", w.Code, w.Body.String())
	}
	pr := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", req))
	if !pr.Cached || pr.Epoch != cluster.EpochCeiling || srv.Epoch() != cluster.EpochCeiling {
		t.Errorf("after the refused refresh: cached=%v epoch %d (server %d); want the entry kept at the ceiling", pr.Cached, pr.Epoch, srv.Epoch())
	}
}
