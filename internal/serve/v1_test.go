package serve

import (
	"net/http"
	"runtime"
	"testing"
	"time"
)

// TestV1RoutesServeAllEndpoints exercises every endpoint through its /v1
// path and checks the unversioned paths are gone.
func TestV1RoutesServeAllEndpoints(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	w := postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp > 7"})
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/plan: %d %s", w.Code, w.Body.String())
	}
	if w := postJSON(t, srv, "/plan", planRequest{SQL: "SELECT * WHERE temp > 7"}); w.Code != http.StatusNotFound {
		t.Errorf("POST /plan: %d, want 404", w.Code)
	}
	if resp := decodeResp[planResponse](t, w); resp.ExpectedCost <= 0 {
		t.Errorf("/v1/plan expected_cost = %g", resp.ExpectedCost)
	}

	w = postJSON(t, srv, "/v1/execute", planRequest{SQL: "SELECT * WHERE light > 11"})
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/execute: %d %s", w.Code, w.Body.String())
	}
	w = postJSON(t, srv, "/v1/ingest", ingestRequest{Rows: [][]int{{1, 2, 3, 4}}})
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/ingest: %d %s", w.Code, w.Body.String())
	}
	w = postJSON(t, srv, "/v1/refresh", refreshRequest{})
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/refresh: %d %s", w.Code, w.Body.String())
	}
	w = getPath(t, srv, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", w.Code, w.Body.String())
	}
}

// TestPlanParallelismRequest checks the parallelism knob: accepted and
// clamped, identical plans at every level, excluded from the cache key so
// differently-parallel clients share entries, and rejected when negative.
func TestPlanParallelismRequest(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	base := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE temp > 7 AND light > 11", Parallelism: 1}))
	for _, par := range []int{2, 4, runtime.GOMAXPROCS(0) + 100} {
		w := postJSON(t, srv, "/v1/plan",
			planRequest{SQL: "SELECT * WHERE temp > 7 AND light > 11", Parallelism: par})
		if w.Code != http.StatusOK {
			t.Fatalf("parallelism %d: %d %s", par, w.Code, w.Body.String())
		}
		resp := decodeResp[planResponse](t, w)
		if resp.PlanB64 != base.PlanB64 || resp.ExpectedCost != base.ExpectedCost {
			t.Errorf("parallelism %d changed the plan", par)
		}
		// Same cache key regardless of parallelism: every follow-up is a hit.
		if !resp.Cached {
			t.Errorf("parallelism %d missed the cache", par)
		}
	}
	if w := postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE temp > 7", Parallelism: -1}); w.Code != http.StatusBadRequest {
		t.Errorf("negative parallelism: %d, want 400", w.Code)
	}
}

// TestStrictModeTypedErrors pins the strict error contract: budget
// exhaustion is a 504 instead of a degraded plan, and an unsatisfiable
// query is a 422 instead of a constant-false plan.
func TestStrictModeTypedErrors(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.ExhaustiveBudget = 1 // starve the exhaustive search immediately
		c.DefaultTimeout = 5 * time.Second
	})
	defer shutdownServer(t, srv)

	// Non-strict: budget exhaustion degrades, 200 with degraded=true.
	lax := postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE temp > 7 AND light > 11", Planner: "exhaustive", NoCache: true})
	if lax.Code != http.StatusOK {
		t.Fatalf("lax exhaustive: %d %s", lax.Code, lax.Body.String())
	}
	if !decodeResp[planResponse](t, lax).Degraded {
		t.Error("budget-starved lax exhaustive not marked degraded")
	}

	// Strict: the same request is a 504 gateway timeout.
	strict := postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE temp > 7 AND light > 11", Planner: "exhaustive", Strict: true, NoCache: true})
	if strict.Code != http.StatusGatewayTimeout {
		t.Errorf("strict budget exhaustion: %d %s, want 504", strict.Code, strict.Body.String())
	}

	// Non-strict unsatisfiable: a constant-false plan.
	lax = postJSON(t, srv, "/v1/plan", planRequest{SQL: "SELECT * WHERE temp < 4 AND temp > 11"})
	if lax.Code != http.StatusOK {
		t.Fatalf("lax unsatisfiable: %d %s", lax.Code, lax.Body.String())
	}
	// Strict unsatisfiable: 422.
	strict = postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE temp < 4 AND temp > 11", Strict: true})
	if strict.Code != http.StatusUnprocessableEntity {
		t.Errorf("strict unsatisfiable: %d %s, want 422", strict.Code, strict.Body.String())
	}
}

// TestStrictSuccessIsCachedForEveryone checks that a strict request whose
// search completes feeds the shared cache: strictness affects failure
// handling, never which plan a successful run returns.
func TestStrictSuccessIsCachedForEveryone(t *testing.T) {
	srv := newTestServer(t, nil)
	defer shutdownServer(t, srv)

	first := postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE humid > 9", Strict: true, Parallelism: 2})
	if first.Code != http.StatusOK {
		t.Fatalf("strict plan: %d %s", first.Code, first.Body.String())
	}
	second := decodeResp[planResponse](t, postJSON(t, srv, "/v1/plan",
		planRequest{SQL: "SELECT * WHERE humid > 9"}))
	if !second.Cached {
		t.Error("lax request missed the cache a strict request populated")
	}
}
