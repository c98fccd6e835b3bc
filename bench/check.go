package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync"

	"acqp"
	"acqp/internal/model"
	"acqp/internal/plan"
	"acqp/internal/stats"
)

// referenceEvery is the sampling rate of the expensive answer checks:
// one answer in this many, chosen by the seed, is planned again
// in-process (and, when it was forwarded, asked again of its owner).
const referenceEvery = 50

// answer is what the harness reads of a /v1/plan or /v1/execute
// response. The two execution fields are pointers so that their absence
// from an /v1/execute answer is a failure, not a zero.
type answer struct {
	PlanB64      string   `json:"plan_b64"`
	ExpectedCost float64  `json:"expected_cost"`
	NaiveCost    float64  `json:"naive_cost"`
	Degraded     bool     `json:"degraded"`
	Epoch        uint64   `json:"epoch"`
	Key          string   `json:"key"`
	PlanMS       float64  `json:"plan_ms"`
	ElapsedMS    float64  `json:"elapsed_ms"`
	Node         string   `json:"node"`
	Forwarded    bool     `json:"forwarded"`
	MeanCost     *float64 `json:"mean_cost"`
	Mismatches   *int     `json:"mismatches"`
}

// perRequestFields are the members of an answer that legitimately
// differ between two answers to the same body: the request id, the
// timings, and how the answer reached the client.
var perRequestFields = []string{"request_id", "elapsed_ms", "plan_ms", "execute_ms", "forwarded", "cached", "shared"}

// sampled is an answer kept for the reference checks, which run after
// the timed phases so that they take no processor time from the server.
type sampled struct {
	req  request
	ans  answer
	body []byte
}

// checker checks every answer, counts attempts and failures, and keeps
// the seeded sample for verify. It is shared by all connections.
type checker struct {
	w    *world
	spec workloadSpec
	seed int64

	mu        sync.Mutex
	attempted int
	failed    int
	reasons   map[string]int
	order     []string // the reasons, in order of first appearance
	samples   []sampled
}

func newChecker(w *world, spec workloadSpec, seed int64) *checker {
	return &checker{w: w, spec: spec, seed: seed, reasons: make(map[string]int)}
}

func (c *checker) fail(reason string) {
	c.mu.Lock()
	c.failed++
	if c.reasons[reason] == 0 {
		c.order = append(c.order, reason)
	}
	c.reasons[reason]++
	c.mu.Unlock()
}

// inspect applies the per-answer checks and returns the decoded answer
// with the reason it fails, empty when it passes.
func (c *checker) inspect(req request, status int, body []byte, err error) (answer, string) {
	var a answer
	switch {
	case err != nil:
		return a, "transport: " + err.Error()
	case status != http.StatusOK:
		return a, fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return a, "answer is not JSON: " + err.Error()
	}
	raw, err := base64.StdEncoding.DecodeString(a.PlanB64)
	if err != nil {
		return a, "plan_b64 is not base64"
	}
	if _, err := plan.Decode(c.w.s, raw); err != nil {
		return a, "plan does not decode: " + err.Error()
	}
	switch {
	case a.Key != req.q.Key():
		return a, "answer is for another canonical query"
	case a.Degraded:
		return a, "degraded plan"
	case a.NaiveCost <= 0 || a.ExpectedCost > a.NaiveCost*(1+1e-9):
		return a, "expected_cost exceeds naive_cost"
	}
	if req.path == "/v1/execute" {
		switch {
		case a.Mismatches == nil || a.MeanCost == nil:
			return a, "execute answer lacks mismatches or mean_cost"
		case *a.Mismatches != 0:
			return a, "executed plan disagrees with the query"
		}
	}
	return a, ""
}

// check turns response i of the read stream into a record.
func (c *checker) check(req request, i int, status int, body []byte, err error) record {
	a, reason := c.inspect(req, status, body, err)
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
	if reason != "" {
		c.fail(reason)
		return record{}
	}
	rec := record{ok: true, forwarded: a.Forwarded, elapsedMS: a.ElapsedMS, planMS: a.PlanMS, ratio: a.ExpectedCost / a.NaiveCost}
	if req.path == "/v1/execute" {
		rec.ratio = *a.MeanCost / a.NaiveCost
	}
	if newRNG(c.seed, streamSample+uint64(i)<<8).intn(referenceEvery) == 0 {
		s := sampled{req: req, ans: a, body: append([]byte(nil), body...)}
		c.mu.Lock()
		c.samples = append(c.samples, s)
		c.mu.Unlock()
	}
	return rec
}

// checkWrite counts one request of the write schedule.
func (c *checker) checkWrite(kind string, status int, body []byte, err error) {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
	switch {
	case err != nil:
		c.fail(kind + " transport: " + err.Error())
	case status != http.StatusOK:
		c.fail(fmt.Sprintf("%s status %d: %s", kind, status, strings.TrimSpace(string(body))))
	}
}

// verify runs the sampled checks. An answer given at the first epoch was
// planned on the history table the harness also holds, so planning it
// again in-process must give the same bytes; later epochs were planned
// on a window only the server has. A forwarded answer must agree with
// what its owner says when asked directly.
func (c *checker) verify(ctx context.Context) error {
	var dist stats.Dist
	reference := map[string]string{} // canonical key -> plan_b64; a pool's samples repeat its queries
	cl := newClient()
	defer cl.close()
	for _, s := range c.samples {
		if s.ans.Epoch == 1 && reference[s.ans.Key] == "" {
			if dist == nil {
				name := c.spec.model
				if name == "" {
					name = model.NameEmpirical
				}
				var err error
				if dist, err = model.Fit(name, c.w.tbl, model.Opts{}); err != nil {
					return fmt.Errorf("bench: fitting the reference model: %w", err)
				}
			}
			node, _, err := acqp.Optimize(ctx, dist, s.req.q, acqp.DefaultOptions())
			if err != nil {
				return fmt.Errorf("bench: reference plan: %w", err)
			}
			reference[s.ans.Key] = base64.StdEncoding.EncodeToString(plan.Encode(node))
		}
		if s.ans.Epoch == 1 && reference[s.ans.Key] != s.ans.PlanB64 {
			c.fail("plan differs from acqp.Optimize on the same table and query")
		}
		if s.ans.Forwarded {
			status, body, err := cl.post(ctx, s.ans.Node+s.req.path, s.req.body)
			if _, reason := c.inspect(s.req, status, body, err); reason != "" {
				c.fail("owner asked directly: " + reason)
			} else if !sameAnswer(s.body, body) {
				c.fail("forwarded answer differs from the owner's direct answer")
			}
		}
	}
	return nil
}

// sameAnswer reports whether two response bodies agree on every member
// that is not per-request.
func sameAnswer(a, b []byte) bool {
	var ma, mb map[string]any
	if json.Unmarshal(a, &ma) != nil || json.Unmarshal(b, &mb) != nil {
		return false
	}
	for _, f := range perRequestFields {
		delete(ma, f)
		delete(mb, f)
	}
	return reflect.DeepEqual(ma, mb)
}

// report lists the failure reasons, most frequent first.
func (c *checker) report() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.order))
	for i, r := range c.order {
		out[i] = fmt.Sprintf("%6d x %s", c.reasons[r], r)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out
}
