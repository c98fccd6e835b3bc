package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"acqp/internal/model"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/table"
)

// TestPlanModelSelection pins the model field end-to-end: every registry
// backend plans successfully and is echoed back, unknown names are 400s,
// and a request without the field gets a response without it — the
// byte-level compatibility contract for legacy clients.
func TestPlanModelSelection(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	const sql = "SELECT * WHERE temp > 7 AND light > 11"

	baseline := postJSON(t, srv, "/v1/plan", planRequest{SQL: sql})
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline plan: status %d: %s", baseline.Code, baseline.Body.String())
	}
	if strings.Contains(baseline.Body.String(), `"model"`) {
		t.Errorf("response without a requested model carries a model field: %s", baseline.Body.String())
	}

	for _, name := range model.Names() {
		w := postJSON(t, srv, "/v1/plan", planRequest{SQL: sql, Model: name})
		if w.Code != http.StatusOK {
			t.Fatalf("model %q: status %d: %s", name, w.Code, w.Body.String())
		}
		resp := decodeResp[planResponse](t, w)
		if resp.Model != name {
			t.Errorf("model %q echoed as %q", name, resp.Model)
		}
		if resp.Plan == "" || resp.PlanB64 == "" {
			t.Errorf("model %q returned an empty plan", name)
		}
	}

	if w := postJSON(t, srv, "/v1/plan", planRequest{SQL: sql, Model: "neural"}); w.Code != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestPlanModelCacheSeparation pins the cache-key contract: an explicit
// "empirical" shares entries with the absent-field default (its key is
// unchanged), while fitted backends get their own entries.
func TestPlanModelCacheSeparation(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	const sql = "SELECT * WHERE temp > 7"

	if first := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql})); first.Cached {
		t.Fatal("first default plan claims a cache hit")
	}
	if again := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql, Model: model.NameEmpirical})); !again.Cached {
		t.Error("explicit empirical did not share the default's cache entry")
	}
	if cl := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql, Model: model.NameChowLiu})); cl.Cached {
		t.Error("chowliu hit the empirical cache entry; model is missing from the key")
	}
	if cl2 := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql, Model: model.NameChowLiu})); !cl2.Cached {
		t.Error("repeated chowliu plan missed the cache")
	}
}

// TestServerDefaultModel covers the -model server default: requests
// without the field plan against (and echo) the configured backend, and
// an unknown default is a construction-time error.
func TestServerDefaultModel(t *testing.T) {
	srv := newTestServer(t, func(c *Config) { c.DefaultModel = model.NameChowLiu })
	defer shutdownServer(t, srv)

	resp := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}))
	if resp.Model != model.NameChowLiu {
		t.Errorf("default-model server echoed %q, want %q", resp.Model, model.NameChowLiu)
	}

	s := testSchema()
	if _, err := New(Config{Schema: s, History: testHistory(s, 100, 1), DefaultModel: "neural"}); err == nil {
		t.Error("New accepted an unknown default model")
	}
}

// TestModelRefitOnEpochBump drives a drifted refresh and checks fitted
// backends follow the epoch: the post-refresh plan is fresh, carries the
// new epoch, and the fit counter shows a refit happened.
func TestModelRefitOnEpochBump(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.WindowSize = 2048
		c.DefaultModel = model.NameBN
	})
	defer shutdownServer(t, srv)
	const sql = "SELECT * WHERE temp > 7"

	first := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql}))
	if first.Epoch != 1 || first.Model != model.NameBN {
		t.Fatalf("first plan: epoch %d model %q", first.Epoch, first.Model)
	}
	fitsBefore := srv.metrics.modelFits.Load()
	if fitsBefore < 1 {
		t.Fatalf("no model fit recorded before refresh")
	}

	rng := rand.New(rand.NewSource(7))
	rows := make([][]int, 2048)
	for i := range rows {
		rows[i] = []int{rng.Intn(24), 12 + rng.Intn(4), rng.Intn(4), rng.Intn(16)}
	}
	if ing := decodeResp[ingestResponse](t, postJSON(t, srv, "/v1/ingest", ingestRequest{Rows: rows})); ing.Accepted != 2048 {
		t.Fatalf("ingest accepted %d rows", ing.Accepted)
	}
	ref := decodeResp[refreshResponse](t, postJSON(t, srv, "/v1/refresh", refreshRequest{Force: true}))
	if !ref.Refreshed || ref.Epoch != 2 {
		t.Fatalf("refresh: %+v", ref)
	}
	if fits := srv.metrics.modelFits.Load(); fits != fitsBefore+1 {
		t.Errorf("refresh refit the default model %d times, want exactly once (counter %d -> %d)", fits-fitsBefore, fitsBefore, fits)
	}

	fresh := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan", planRequest{SQL: sql}))
	if fresh.Cached || fresh.Epoch != 2 {
		t.Errorf("post-refresh plan: cached %v epoch %d, want fresh at epoch 2", fresh.Cached, fresh.Epoch)
	}
}

// TestPlanTooManyPredicates pins the stats-layer mask width as a 422 at
// the API boundary rather than a panic-turned-500 inside planning.
func TestPlanTooManyPredicates(t *testing.T) {
	attrs := make([]schema.Attribute, stats.MaxJointPreds+1)
	for i := range attrs {
		attrs[i] = schema.Attribute{Name: fmt.Sprintf("a%d", i), K: 4, Cost: 1}
	}
	s := schema.New(attrs...)
	rng := rand.New(rand.NewSource(3))
	tbl := testWideTable(s, 64, rng)
	srv, err := New(Config{Schema: s, History: tbl})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, srv)

	var conj []string
	for i := 0; i < stats.MaxJointPreds+1; i++ {
		conj = append(conj, fmt.Sprintf("a%d > 0", i))
	}
	w := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE " + strings.Join(conj, " AND ")})
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("%d-predicate plan: status %d, want 422: %s", stats.MaxJointPreds+1, w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "invalid request") {
		t.Errorf("422 body does not carry the typed verdict: %s", w.Body.String())
	}

	// One predicate fewer plans fine.
	ok := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE " + strings.Join(conj[:stats.MaxJointPreds], " AND ")})
	if ok.Code != http.StatusOK {
		t.Errorf("%d-predicate plan: status %d, want 200: %s", stats.MaxJointPreds, ok.Code, ok.Body.String())
	}
}

// testWideTable fills a table with uniform random values for wide-schema
// tests.
func testWideTable(s *schema.Schema, rows int, rng *rand.Rand) *table.Table {
	tbl := table.New(s, rows)
	row := make([]schema.Value, s.NumAttrs())
	for r := 0; r < rows; r++ {
		for a := range row {
			row[a] = schema.Value(rng.Intn(s.K(a)))
		}
		tbl.MustAppendRow(row)
	}
	return tbl
}

// TestRequestIDPrefixUnique is the regression test for the truncated
// request-ID prefix: two instances started at the very same nanosecond
// must still mint distinct ID streams, and the timestamp half must keep
// all 64 bits.
func TestRequestIDPrefixUnique(t *testing.T) {
	started := time.Unix(0, 0x1122334455667788)
	a, b := string(idPrefix(started)), string(idPrefix(started))
	if a == b {
		t.Fatalf("identical start times produced identical ID prefixes %q", a)
	}
	for _, p := range []string{a, b} {
		if !strings.HasPrefix(p, "1122334455667788-") {
			t.Errorf("prefix %q lost timestamp bits, want full 64-bit nanos first", p)
		}
		if !strings.HasSuffix(p, "-") {
			t.Errorf("prefix %q does not end with the separator", p)
		}
	}
}
