package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fuzzServer is shared across fuzz iterations: building a server per input
// would drown the fuzzer in setup cost.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer(f *testing.F) *Server {
	fuzzOnce.Do(func() {
		s := testSchema()
		cfg := Config{
			Schema:  s,
			History: testHistory(s, 256, 1),
			// Keep worst-case planning cheap: tiny deadline, small budget.
			DefaultTimeout:   100 * time.Millisecond,
			ExhaustiveBudget: 10_000,
		}
		srv, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv = srv
	})
	return fuzzSrv
}

// FuzzServeRequest drives arbitrary bytes through the /plan request path:
// JSON decoding, SQL parsing, canonicalization, parameter clamping, and
// planning. The service must never panic and must answer every input with
// one of its documented statuses.
func FuzzServeRequest(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"sql":"SELECT * WHERE temp > 7"}`),
		[]byte(`{"sql":"SELECT * WHERE 8 <= temp <= 15","planner":"exhaustive","timeout_ms":5}`),
		[]byte(`{"sql":"SELECT * WHERE NOT (light BETWEEN 4 AND 11)","max_splits":3,"split_points":4}`),
		[]byte(`{"sql":"SELECT * WHERE temp > 7 OR light < 4"}`),
		[]byte(`{"sql":"SELECT * WHERE temp < 4 AND temp > 11","no_cache":true}`),
		[]byte(`{"sql":"SELECT hour"}`),
		[]byte(`{"sql":""}`),
		[]byte(`{"sql":"SELEKT"}`),
		[]byte(`{"planner":"quantum","sql":"SELECT * WHERE humid = 5"}`),
		[]byte(`{"sql":"SELECT * WHERE temp > 7","max_splits":-3,"split_points":99999,"timeout_ms":-1}`),
		[]byte(`{nope`),
		[]byte(``),
		[]byte(`[1,2,3]`),
		[]byte(`{"sql":"SELECT * WHERE bogus = 1"}`),
		[]byte(`{"sql":"SELECT * WHERE temp > 7","parallelism":4,"strict":true}`),
		[]byte(`{"sql":"SELECT * WHERE 8 <= temp <= 15","planner":"exhaustive","strict":true,"timeout_ms":1}`),
		[]byte(`{"sql":"SELECT * WHERE temp < 4 AND temp > 11","strict":true}`),
		[]byte(`{"sql":"SELECT * WHERE temp > 7","parallelism":-2}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("unexpected status %d for body %q: %s", w.Code, body, w.Body.String())
		}
	})
}
