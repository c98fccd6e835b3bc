package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// respell returns a body that decodes to the same request as
// {"sql":sql} but differs byte for byte for every n: n spaces of JSON
// whitespace after the colon.
func respell(sql string, n int) string {
	return `{"sql":` + strings.Repeat(" ", n) + `"` + sql + `"}`
}

// servedFast posts body and reports whether the replay path answered
// it. The mux is swapped for an empty one for the duration of the
// call, so any request that reaches the regular handlers gets a 404.
func servedFast(t *testing.T, srv *Server, body string) bool {
	t.Helper()
	mux := srv.mux
	srv.mux = http.NewServeMux()
	defer func() { srv.mux = mux }()
	w := postRaw(t, srv, "/v1/plan", body, nil)
	switch w.Code {
	case http.StatusOK:
		return true
	case http.StatusNotFound:
		return false
	}
	t.Fatalf("probe status %d: %s", w.Code, w.Body.String())
	return false
}

// TestPlanCacheOnePolicy pins that the pre-serialized replay of a
// /v1/plan answer lives and dies with its LRU plan-cache entry: one
// capacity, one eviction policy, one epoch purge.
func TestPlanCacheOnePolicy(t *testing.T) {
	const sql = "SELECT * WHERE temp > 7 AND light > 11"

	t.Run("one-time respellings do not lock out a hot body", func(t *testing.T) {
		srv := newTestServer(t, func(c *Config) { c.CacheSize = 8 })
		defer shutdownServer(t, srv)
		postRaw(t, srv, "/v1/plan", respell(sql, 0), nil) // plans
		for i := 1; i <= 8; i++ {
			if w := postRaw(t, srv, "/v1/plan", respell(sql, i), nil); w.Code != http.StatusOK {
				t.Fatalf("respelling %d: %d %s", i, w.Code, w.Body.String())
			}
		}
		hot := respell(sql, 100)
		postRaw(t, srv, "/v1/plan", hot, nil)
		postRaw(t, srv, "/v1/plan", hot, nil)
		if !servedFast(t, srv, hot) {
			t.Error("third request of a repeated body was not replayed")
		}
	})

	t.Run("eviction ends the replay", func(t *testing.T) {
		srv := newTestServer(t, func(c *Config) { c.CacheSize = 1 })
		defer shutdownServer(t, srv)
		a := respell("SELECT * WHERE temp > 7", 0)
		postRaw(t, srv, "/v1/plan", a, nil) // plan A
		if r := decodeResp[planResponse](t, postRaw(t, srv, "/v1/plan", a, nil)); !r.Cached {
			t.Fatal("second request of A missed the cache")
		}
		postRaw(t, srv, "/v1/plan", respell("SELECT * WHERE light > 11", 0), nil) // plan B, evicts A
		if r := decodeResp[planResponse](t, postRaw(t, srv, "/v1/plan", a, nil)); r.Cached {
			t.Error("A answered cached:true after the LRU evicted it")
		}
		for _, line := range strings.Split(getPath(t, srv, "/metrics").Body.String(), "\n") {
			if strings.HasPrefix(line, "acqserved_planner_calls ") && line != "acqserved_planner_calls 3" {
				t.Errorf("%s, want 3: plan A, plan B, re-plan A", line)
			}
		}
	})

	t.Run("index bounded and live under a random mix", func(t *testing.T) {
		const size = 4
		srv := newTestServer(t, func(c *Config) { c.CacheSize = size })
		defer shutdownServer(t, srv)
		queries := []string{
			"SELECT * WHERE temp > 7", "SELECT * WHERE light > 11", "SELECT * WHERE humid <= 9",
			"SELECT * WHERE temp > 3 AND light > 2", "SELECT * WHERE hour >= 6 AND temp < 12",
			"SELECT * WHERE humid > 4 AND light <= 3",
		}
		rng := rand.New(rand.NewSource(7))
		var sent []string
		spelling := 0
		for step := 0; step < 600; step++ {
			var body string
			switch k := rng.Intn(10); {
			case k < 5 && len(sent) > 0: // byte-identical repeat
				body = sent[rng.Intn(len(sent))]
			case k < 8: // a never-seen respelling
				spelling++
				body = respell(queries[rng.Intn(len(queries))], spelling)
			case k < 9: // a distinct query in its first spelling
				body = respell(queries[rng.Intn(len(queries))], 0)
			default:
				srv.Refresh(true)
				checkPlanCache(t, srv, step)
				continue
			}
			sent = append(sent, body)
			w := postRaw(t, srv, "/v1/plan", body, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("step %d: %d %s", step, w.Code, w.Body.String())
			}
			if r := decodeResp[planResponse](t, w); r.Epoch != srv.Epoch() {
				t.Fatalf("step %d: answer from epoch %d, server at %d", step, r.Epoch, srv.Epoch())
			}
			checkPlanCache(t, srv, step)
		}
	})

	t.Run("replays race refreshes", func(t *testing.T) {
		srv := newTestServer(t, func(c *Config) { c.CacheSize = 4 })
		defer shutdownServer(t, srv)
		bodies := []string{respell("SELECT * WHERE temp > 7", 0), respell("SELECT * WHERE light > 11", 0)}
		stop := make(chan struct{})
		var refresher sync.WaitGroup
		refresher.Add(1)
		go func() {
			defer refresher.Done()
			for {
				select {
				case <-stop:
					return
				default:
					srv.Refresh(true)
				}
			}
		}()
		var readers sync.WaitGroup
		errs := make(chan error, 4)
		for g := 0; g < 4; g++ {
			readers.Add(1)
			go func(g int) {
				defer readers.Done()
				for i := 0; i < 200; i++ {
					w := postRaw(t, srv, "/v1/plan", bodies[(g+i)%len(bodies)], nil)
					if w.Code != http.StatusOK {
						errs <- fmt.Errorf("reader %d request %d: %d %s", g, i, w.Code, w.Body.String())
						return
					}
				}
			}(g)
		}
		readers.Wait()
		close(stop)
		refresher.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		checkPlanCache(t, srv, -1)
	})
}

// checkPlanCache asserts the replay index invariants: no more indexed
// bodies than the cache holds entries, and every indexed body names a
// live entry whose slot holds that very body.
func checkPlanCache(t *testing.T, srv *Server, step int) {
	t.Helper()
	c := srv.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.bodies) > c.max {
		t.Fatalf("step %d: %d indexed bodies, capacity %d", step, len(c.bodies), c.max)
	}
	slots := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheEntry).body != "" {
			slots++
		}
	}
	if slots != len(c.bodies) {
		t.Fatalf("step %d: %d filled slots, %d indexed bodies", step, slots, len(c.bodies))
	}
	for body, el := range c.bodies {
		e := el.Value.(*cacheEntry)
		if c.m[e.key] != el {
			t.Fatalf("step %d: body %q indexes an evicted entry %q", step, body, e.key)
		}
		if e.body != body {
			t.Fatalf("step %d: body %q indexes an entry whose slot holds %q", step, body, e.body)
		}
	}
}
