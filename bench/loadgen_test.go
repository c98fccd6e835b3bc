package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"acqp/internal/opt"
	"acqp/internal/plan"
	"acqp/internal/stats"
)

// stub stands in for acqserved: it answers every request with a valid
// plan for the one query of the test workload, counts the connections
// it is given, and can freeze the whole server for a while, as a
// stop-the-world pause or a long purge would.
type stub struct {
	srv      *httptest.Server
	answer   []byte
	stallAt  int64 // the request, counted from 1, that starts the stall; 0 for none
	stallFor time.Duration

	requests atomic.Int64
	conns    atomic.Int64
	inFlight atomic.Int64
	maxBusy  atomic.Int64

	mu         sync.Mutex
	stallUntil time.Time
}

func (s *stub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	busy := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		max := s.maxBusy.Load()
		if busy <= max || s.maxBusy.CompareAndSwap(max, busy) {
			break
		}
	}
	n := s.requests.Add(1)
	s.mu.Lock()
	if n == s.stallAt {
		s.stallUntil = time.Now().Add(s.stallFor)
	}
	until := s.stallUntil
	s.mu.Unlock()
	time.Sleep(time.Until(until))
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.answer)
}

// stubWorkload is one query asked over and over by conns connections.
var stubWorkload = workloadSpec{name: "stub", nodes: 1, path: "/v1/plan", pool: 1, minPreds: 2, maxPreds: 2, rate: 400, readers: conns}

func newStub(t *testing.T, w *world, stallAt int64, stallFor time.Duration) (*stub, *loadgen) {
	t.Helper()
	seq := newSequence(w, stubWorkload, 1)
	q := seq.pool[0].q
	node, cost, err := opt.NaivePlanner{}.Plan(context.Background(), stats.NewEmpirical(w.tbl), q)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := json.Marshal(map[string]any{
		"plan_b64": base64.StdEncoding.EncodeToString(plan.Encode(node)), "expected_cost": cost, "naive_cost": cost,
		"epoch": 1, "key": q.Key(), "elapsed_ms": 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &stub{answer: answer, stallAt: stallAt, stallFor: stallFor}
	s.srv = httptest.NewUnstartedServer(s)
	s.srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			s.conns.Add(1)
		}
	}
	s.srv.Start()
	t.Cleanup(s.srv.Close)
	return s, &loadgen{seq: seq, urls: []string{s.srv.URL}, chk: newChecker(w, stubWorkload, 1)}
}

// A 200 ms freeze of the server must show in the latency of the
// requests that came due during it, although each of them, once it was
// finally sent, was answered at once: latency runs from the due time.
func TestOpenLoopChargesAStallToTheRequestsBehindIt(t *testing.T) {
	w := testWorld(t)
	const stall = 200 * time.Millisecond
	s, g := newStub(t, w, 100, stall)
	n := stubWorkload.rate // one second
	recs := g.open(context.Background(), 0, n, float64(stubWorkload.rate))
	if got := int(s.requests.Load()); got != n || len(okOnly(recs)) != n {
		t.Fatalf("%d requests reached the stub, %d were OK, want %d", got, len(okOnly(recs)), n)
	}

	// About stall*rate requests came due while the server was frozen.
	due := int(stall.Seconds() * float64(stubWorkload.rate))
	behind, fastOnceSent := 0, 0
	for _, r := range recs {
		if r.latency > stall/4 {
			behind++
			if r.done-r.sent < stall/4 {
				fastOnceSent++
			}
		}
	}
	if behind < due/2 {
		t.Errorf("%d requests show the stall in their latency, want at least %d of the %d that came due during it", behind, due/2, due)
	}
	if fastOnceSent < behind/2 {
		t.Errorf("only %d of the %d slow requests were fast from send to answer: the stall is not charged from the due time", fastOnceSent, behind)
	}
	if share := lateShare(recs, lateAfter(float64(stubWorkload.rate))); share < float64(due)/float64(n)/2 {
		t.Errorf("late share %.3f does not report the stall (%d of %d requests came due during it)", share, due, n)
	}
	late := pick(recs, func(r record) float64 { return float64(r.late) / float64(time.Millisecond) })
	if p99 := percentile(late, 99); p99 < float64(stall/time.Millisecond)/2 {
		t.Errorf("late p99 %.1f ms does not report a %s stall", p99, stall)
	}

	// The same run through the end-to-end arithmetic: the stall sits in
	// the first two of the three segments, so the best one does not show
	// it, but the segments it sits in do.
	var p90 []float64
	for k := 0; k < segmentsOf; k++ {
		p90 = append(p90, percentile(pick(recs[k*n/segmentsOf:(k+1)*n/segmentsOf], latencyMS), 90))
	}
	if worst := percentile(append([]float64(nil), p90...), 100); worst < float64(stall/time.Millisecond)/4 {
		t.Errorf("no segment's p90 shows the stall: %v ms", p90)
	}
	if good := best(p90, true); good > float64(stall/time.Millisecond)/4 {
		t.Errorf("the best segment's p90 is %.1f ms: one stall decides the whole run's figure (%v)", good, p90)
	}
}

// Without a stall the generator keeps to its schedule.
func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	w := testWorld(t)
	_, g := newStub(t, w, 0, 0)
	recs := g.open(context.Background(), 0, stubWorkload.rate/2, float64(stubWorkload.rate))
	if share := lateShare(recs, lateAfter(float64(stubWorkload.rate))); share > 0.2 {
		t.Errorf("late share %.3f against a server that answers at once", share)
	}
	last := recs[len(recs)-1]
	if want := 500 * time.Millisecond; last.sent < want*9/10 || last.sent > want*3/2 {
		t.Errorf("the last of %d requests at %d/s was sent %s into the phase", len(recs), stubWorkload.rate, last.sent)
	}
}

// The closed loop has conns connections, each with one request in
// flight, and every request it takes is consecutive.
func TestClosedLoopNeverExceedsItsConnections(t *testing.T) {
	w := testWorld(t)
	s, g := newStub(t, w, 0, 0)
	tr := newTracer()
	recs := g.closedLoop(context.Background(), tr, 10, time.Now(), 300*time.Millisecond)
	if len(recs) < 10 || len(okOnly(recs)) != len(recs) || int(g.closed.Load()) != len(recs) {
		t.Fatalf("%d requests, %d OK, %d counted", len(recs), len(okOnly(recs)), g.closed.Load())
	}
	if c := s.conns.Load(); c > conns {
		t.Errorf("the stub saw %d connections, want at most %d", c, conns)
	}
	if b := s.maxBusy.Load(); b > conns {
		t.Errorf("%d requests in flight at once, want at most %d", b, conns)
	}
	if len(tr.spans) != len(recs) {
		t.Errorf("%d spans for %d requests", len(tr.spans), len(recs))
	}
	perConn := map[int]time.Duration{}
	for _, r := range recs {
		if r.sent < perConn[r.conn] {
			t.Fatalf("connection %d sent a request at %s, before its last answer at %s", r.conn, r.sent, perConn[r.conn])
		}
		perConn[r.conn] = r.done
	}
	if rps := throughput(recs); rps < float64(len(recs))/0.4 {
		t.Errorf("throughput %.0f/s for %d requests in about 0.3 s", rps, len(recs))
	}
}

func TestThroughputTimesEachConnectionOverItsOwnStretch(t *testing.T) {
	var recs []record
	for i := 0; i < 10; i++ { // connection 0: ten requests in one second
		recs = append(recs, record{conn: 0, ok: true, sent: time.Duration(i) * 100 * time.Millisecond, done: time.Duration(i+1) * 100 * time.Millisecond})
	}
	for i := 0; i < 5; i++ { // connection 1: five in half a second, then idle
		recs = append(recs, record{conn: 1, ok: i != 4, sent: time.Duration(i) * 100 * time.Millisecond, done: time.Duration(i+1) * 100 * time.Millisecond})
	}
	if got, want := throughput(recs), 10/1.0+4/0.5; abs(got-want) > 1e-9 {
		t.Errorf("throughput %.3f, want %.3f", got, want)
	}
	segs := segments(recs, time.Second, 2)
	if len(segs[0]) != 10 || len(segs[1]) != 5 {
		t.Errorf("segments of %d and %d records, want 10 and 5", len(segs[0]), len(segs[1]))
	}
}
