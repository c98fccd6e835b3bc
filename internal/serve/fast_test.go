package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"acqp/internal/trace"
)

// postRaw posts an exact byte body (postJSON would re-marshal it and
// perturb the bytes the replay slots key on).
func postRaw(t *testing.T, srv *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// stripVolatile parses a /plan response and blanks the two per-request
// fields so slow- and fast-path answers can be compared structurally.
func stripVolatile(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	if id, _ := m["request_id"].(string); id == "" {
		t.Fatalf("response missing request_id: %s", body)
	}
	delete(m, "request_id")
	delete(m, "elapsed_ms")
	return m
}

// TestFastPathMatchesSlowPath pins the fast cache's contract: a
// replayed response is identical to the slow path's cache-hit response
// in every field except the per-request elapsed_ms and request_id.
func TestFastPathMatchesSlowPath(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	const body = `{"sql":"SELECT * WHERE temp > 7 AND light > 11"}`

	postRaw(t, srv, "/v1/plan", body, nil)              // plans, fills the plan cache
	slow := postRaw(t, srv, "/v1/plan", body, nil)      // slow-path cache hit, installs the blob
	fast := postRaw(t, srv, "/v1/plan", body, nil)      // fast path
	fastAgain := postRaw(t, srv, "/v1/plan", body, nil) // fast path, fresh request_id
	if slow.Code != http.StatusOK || fast.Code != http.StatusOK {
		t.Fatalf("status slow=%d fast=%d", slow.Code, fast.Code)
	}

	sm := stripVolatile(t, slow.Body.Bytes())
	fm := stripVolatile(t, fast.Body.Bytes())
	if sv, fv := sm["cached"], fm["cached"]; sv != true || fv != true {
		t.Errorf("cached: slow=%v fast=%v, want true for both", sv, fv)
	}
	sj, _ := json.Marshal(sm)
	fj, _ := json.Marshal(fm)
	if string(sj) != string(fj) {
		t.Errorf("fast response differs from slow:\n slow: %s\n fast: %s", sj, fj)
	}
	if fast.Header().Get("Content-Type") != "application/json" {
		t.Errorf("fast Content-Type = %q", fast.Header().Get("Content-Type"))
	}

	var r1, r2 planResponse
	if err := json.Unmarshal(fast.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fastAgain.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if r1.RequestID == r2.RequestID {
		t.Errorf("fast responses share request_id %q", r1.RequestID)
	}
	if hdr := fast.Header().Get("X-Request-Id"); hdr != r1.RequestID {
		t.Errorf("header id %q != body id %q", hdr, r1.RequestID)
	}
}

// TestFastPathEchoesClientRequestID pins that a caller-supplied
// X-Request-Id flows into the replayed body, and that an ID needing
// JSON escaping falls back to the slow path and still round-trips.
func TestFastPathEchoesClientRequestID(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	const body = `{"sql":"SELECT * WHERE temp > 7"}`
	postRaw(t, srv, "/v1/plan", body, nil)
	postRaw(t, srv, "/v1/plan", body, nil)

	for _, id := range []string{"client-id-123", `we"ird\id`} {
		w := postRaw(t, srv, "/v1/plan", body, map[string]string{"X-Request-Id": id})
		if w.Code != http.StatusOK {
			t.Fatalf("id %q: status %d: %s", id, w.Code, w.Body.String())
		}
		resp := decodeResp[planResponse](t, w)
		if resp.RequestID != id {
			t.Errorf("id %q: body request_id = %q", id, resp.RequestID)
		}
	}
}

// TestFastPathEpochInvalidation pins that an epoch bump invalidates
// fast-path blobs: responses after a forced refresh carry the new epoch.
func TestFastPathEpochInvalidation(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	const body = `{"sql":"SELECT * WHERE temp > 7"}`
	postRaw(t, srv, "/v1/plan", body, nil)
	postRaw(t, srv, "/v1/plan", body, nil)
	before := decodeResp[planResponse](t, postRaw(t, srv, "/v1/plan", body, nil))

	w := postJSON(t, srv, "/v1/refresh", refreshRequest{Force: true})
	if w.Code != http.StatusOK {
		t.Fatalf("refresh: %d %s", w.Code, w.Body.String())
	}

	after := decodeResp[planResponse](t, postRaw(t, srv, "/v1/plan", body, nil))
	if after.Epoch != before.Epoch+1 {
		t.Errorf("post-refresh epoch = %d, want %d", after.Epoch, before.Epoch+1)
	}
	if after.Cached {
		t.Error("post-refresh response claims a cache hit; the old-epoch entry should be gone")
	}
}

// TestServeCacheHitAllocs is the hot-path allocation gate: a fast-path
// /v1/plan hit must cost at most 3 allocations end to end (the measured
// steady state is 2: the request-ID string and its header value slot).
// The pre-refactor path cost 74. Mirrors the trace package's zero-alloc
// gate, and like it must run without -race: the race runtime allocates
// per call.
func TestServeCacheHitAllocs(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("race detector instrumentation allocates; ci.sh runs this gate without -race")
	}
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)
	hot := newHotRequest("/v1/plan", `{"sql":"SELECT * WHERE temp > 7 AND light > 11"}`)
	for i := 0; i < 2; i++ {
		if rec := hot.do(srv); rec.status != http.StatusOK {
			t.Fatalf("warmup status %d: %s", rec.status, rec.body)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rec := hot.do(srv); rec.status != http.StatusOK {
			t.Fatalf("status %d", rec.status)
		}
	})
	if allocs > 3 {
		t.Errorf("cache-hit serve path allocates %.1f/op, gate is 3", allocs)
	}
}

// TestServeClusterCacheHitAllocs is the clustered twin of
// TestServeCacheHitAllocs: a fast-path hit on a non-owner, replayed from
// its copy of the owner's answer after the allocation-free ownership
// check, stays within the same 3 allocations. Like it, it must run
// without -race.
func TestServeClusterCacheHitAllocs(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("race detector instrumentation allocates; ci.sh runs this gate without -race")
	}
	h := newClusterHarness(t, 3, nil)
	h.converge(t)
	const stmt = "SELECT * WHERE temp > 7 AND light > 11"
	srv := h.srvs[(h.ownerIdx(t, stmt)+1)%3]
	hot := newHotRequest("/v1/plan", `{"sql":"`+stmt+`"}`)
	for i := 0; i < 3; i++ { // forward and keep a copy, fill the slot, replay
		if rec := hot.do(srv); rec.status != http.StatusOK {
			t.Fatalf("warmup status %d: %s", rec.status, rec.body)
		}
	}
	if !strings.Contains(string(hot.do(srv).body), `"cached":true`) {
		t.Fatal("warmed-up request is not a cache hit")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rec := hot.do(srv); rec.status != http.StatusOK {
			t.Fatalf("status %d", rec.status)
		}
	})
	if allocs > 3 {
		t.Errorf("clustered cache-hit serve path allocates %.1f/op, gate is 3", allocs)
	}
}
