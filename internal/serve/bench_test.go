package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func newBenchServer(b *testing.B) *Server {
	b.Helper()
	s := testSchema()
	srv, err := New(Config{Schema: s, History: testHistory(s, 2000, 42), CacheSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	})
	return srv
}

func benchPost(b *testing.B, srv *Server, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader([]byte(body)))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// replayBody is a reusable request body: the same bytes replayed from
// the start on each rewind, so one http.Request can drive many
// ServeHTTP calls without per-iteration reader allocations.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }

// nullRecorder is an allocation-free http.ResponseWriter: the header
// map and body buffer are preallocated and recycled across requests.
// httptest.NewRecorder allocates several times per call, which would
// drown the near-zero-alloc path it is here to measure.
type nullRecorder struct {
	header http.Header
	status int
	n      int
	body   []byte
}

func (r *nullRecorder) Header() http.Header  { return r.header }
func (r *nullRecorder) WriteHeader(code int) { r.status = code }

func (r *nullRecorder) Write(p []byte) (int, error) {
	if len(r.body)+len(p) <= cap(r.body) {
		r.body = append(r.body, p...)
	}
	r.n += len(p)
	return len(p), nil
}

// hotRequest is a reusable request/recorder pair for driving one
// endpoint repeatedly with zero harness allocations per call.
type hotRequest struct {
	req  *http.Request
	body *replayBody
	rec  *nullRecorder
}

func newHotRequest(path, body string) *hotRequest {
	rb := &replayBody{data: []byte(body)}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Body = rb
	return &hotRequest{
		req:  req,
		body: rb,
		rec:  &nullRecorder{header: make(http.Header, 8), body: make([]byte, 0, 1<<13)},
	}
}

// do replays the request and returns the shared recorder; its contents
// are valid until the next call. The body is re-attached every call
// because a fast-path miss replaces r.Body with a replay wrapper.
func (h *hotRequest) do(srv *Server) *nullRecorder {
	h.body.off = 0
	h.req.Body = h.body
	h.rec.status = 0
	h.rec.n = 0
	h.rec.body = h.rec.body[:0]
	srv.ServeHTTP(h.rec, h.req)
	return h.rec
}

// BenchmarkServeCacheHit measures the repeated-request hot path: after
// the first two requests (one plans and fills the plan cache, the next
// fills the entry's replay slot with the pre-serialized answer), every
// request is replayed from that slot in ServeHTTP — no mux, no JSON
// decode, no SQL parse, no JSON encode.
func BenchmarkServeCacheHit(b *testing.B) {
	srv := newBenchServer(b)
	hot := newHotRequest("/v1/plan", `{"sql":"SELECT * WHERE temp > 7 AND light > 11"}`)
	for i := 0; i < 2; i++ {
		if rec := hot.do(srv); rec.status != http.StatusOK {
			b.Fatalf("warmup status %d: %s", rec.status, rec.body)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := hot.do(srv); rec.status != http.StatusOK {
			b.Fatalf("status %d", rec.status)
		}
	}
}

// BenchmarkServeCacheMiss measures the full path — HTTP mux, JSON
// decode, SQL parse, canonicalization, planning — when every request is
// a distinct canonical query and the greedy planner must run.
func BenchmarkServeCacheMiss(b *testing.B) {
	srv := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle distinct (temp, humid) rectangles: 15*16 = 240 distinct
		// canonical queries, far beyond what one benchtime run revisits
		// before the cache (8192 entries) would matter, and each repeat
		// lands on a different epoch-keyed entry only after 240 plans.
		lo := i % 15
		hhi := i / 15 % 16
		benchPost(b, srv, fmt.Sprintf(`{"sql":"SELECT * WHERE temp > %d AND humid <= %d","no_cache":true}`, lo, hhi))
	}
}
