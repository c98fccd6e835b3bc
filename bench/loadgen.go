package main

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conns is the number of client connections a workload uses, readers
// and writer together. It is the processor count of the host the rates
// were frozen on, kept constant so that the same traffic reaches the
// server on any host.
const conns = 2

// lateAfter is how long after its due time an open-loop request may be
// sent before it counts as late: a millisecond, or a hundredth of the
// interval between requests where that is longer. At two requests a
// second one request of twelve sent 3 ms late, against a latency of a
// quarter of a second, would otherwise read as a twelfth of the run.
func lateAfter(rate float64) time.Duration {
	return max(time.Millisecond, time.Duration(float64(time.Second)/rate/100))
}

// record is what the generator keeps of one request.
type record struct {
	conn      int           // the connection that sent it
	sent      time.Duration // since the phase started
	done      time.Duration //
	latency   time.Duration // open loop: from the due time; closed loop: from the send
	late      time.Duration // open loop: how long after its due time the request was sent
	queued    bool          // open loop: every connection was still busy when the request came due
	ok        bool          // 200 and every answer check passed
	forwarded bool          // the entry node relayed it to the shard owner
	ratio     float64       // plan (or executed) cost over naive cost
	elapsedMS float64       // the server's own elapsed_ms
	planMS    float64       // the server's plan_ms
}

// loadgen drives one workload's request stream at a set of nodes.
type loadgen struct {
	seq    *sequence
	urls   []string
	chk    *checker
	closed atomic.Int64 // OK answers of the closed loops so far, for the processor-time samples
}

// client is one connection: a transport limited to a single connection
// per host and the buffer response bodies are read into.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClient() *client {
	return &client{http: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends one body and returns the status and the response body,
// which is valid until the client's next call.
func (c *client) post(ctx context.Context, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (g *loadgen) do(ctx context.Context, c *client, i int) record {
	req := g.seq.at(i)
	status, body, err := c.post(ctx, g.urls[req.target]+req.path, req.body)
	return g.chk.check(req, i, status, body, err)
}

// readers runs fn on every reader connection of the workload and waits
// for all of them.
func (g *loadgen) readers(fn func(conn int, c *client)) {
	var wg sync.WaitGroup
	for r := 0; r < g.seq.spec.readers; r++ {
		wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			fn(r, c)
		}()
	}
	wg.Wait()
}

// open sends requests first..first+n-1 at a fixed rate over the
// workload's reader connections. Request i is due at start + i/rate
// whatever happened to the requests before it; a connection that is
// still busy at that time sends it late, and its latency is counted
// from the due time, so a stall is charged to every request queued
// behind it. A request is queued when no connection was free to wait
// for its due time; a request that a free connection had in hand and
// still sent late was held up by the generator itself.
func (g *loadgen) open(ctx context.Context, first, n int, rate float64) []record {
	recs := make([]record, n)
	interval := float64(time.Second) / rate
	spin := min(maxSpin, time.Duration(interval/8))
	var next atomic.Int64
	start := time.Now()
	g.readers(func(conn int, c *client) {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			due := start.Add(time.Duration(float64(i) * interval))
			queued := time.Now().After(due)
			waitUntil(due, spin)
			sent := time.Now()
			rec := g.do(ctx, c, first+i)
			end := time.Now()
			rec.conn, rec.sent, rec.done = conn, sent.Sub(start), end.Sub(start)
			rec.latency, rec.late, rec.queued = end.Sub(due), sent.Sub(due), queued
			recs[i] = rec
		}
	})
	return recs
}

// maxSpin is the longest a connection spins on the clock before a due
// time instead of sleeping up to it.
const maxSpin = 2 * time.Millisecond

// waitUntil returns at t: it sleeps until shortly before and spins the
// rest, for at most spin. A thread that sleeps right up to a due time
// is woken late now and then, by a millisecond or more when the host
// has taken the processor away meanwhile; at a few requests a second a
// single such wake-up is a visible share of all requests. The spin is
// kept to an eighth of the interval between requests, so that at
// thousands of requests a second, where the threads hardly sleep, it
// takes no processor from the server.
func waitUntil(t time.Time, spin time.Duration) {
	sleepUntil(t.Add(-spin))
	for time.Now().Before(t) {
	}
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's own timers round a short sleep up to a millisecond, which at
// several thousand requests a second would make every request late.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d) // nanosleep refuses only an invalid interval; fall back
		}
	}
}

// closedLoop keeps the reader connections busy back to back from
// request `first` on: each connection sends its next request as soon as
// it has the answer to its last, until dur has passed since start, and
// then finishes the request it has in flight. The records come back
// grouped by connection. A non-nil tracer records a span around every
// request.
func (g *loadgen) closedLoop(ctx context.Context, tr *tracer, first int, start time.Time, dur time.Duration) []record {
	var next atomic.Int64
	next.Store(int64(first))
	perConn := make([][]record, g.seq.spec.readers)
	g.readers(func(conn int, c *client) {
		for ctx.Err() == nil {
			sent := time.Now()
			if sent.Sub(start) >= dur {
				return
			}
			i := int(next.Add(1)) - 1
			span := tr.begin("loadgen.request", noParent, i)
			rec := g.do(ctx, c, i)
			end := time.Now()
			tr.end(span)
			rec.conn, rec.sent, rec.done, rec.latency = conn, sent.Sub(start), end.Sub(start), end.Sub(sent)
			perConn[conn] = append(perConn[conn], rec)
			if rec.ok {
				g.closed.Add(1)
			}
		}
	})
	var recs []record
	for _, rs := range perConn {
		recs = append(recs, rs...)
	}
	return recs
}

// throughput is the rate at which a closed loop's connections completed
// OK requests: each connection's count over the time from its first
// send to its last answer, summed over the connections. Timing every
// connection over its own busy stretch keeps the figure free of the
// idle tail a connection has when it stops before another does.
func throughput(recs []record) float64 {
	type stretch struct {
		ok          int
		first, last time.Duration
	}
	var byConn []stretch
	for _, r := range recs {
		for len(byConn) <= r.conn {
			byConn = append(byConn, stretch{first: -1})
		}
		s := &byConn[r.conn]
		if s.first < 0 || r.sent < s.first {
			s.first = r.sent
		}
		if r.done > s.last {
			s.last = r.done
		}
		if r.ok {
			s.ok++
		}
	}
	total := 0.0
	for _, s := range byConn {
		if s.last > s.first {
			total += float64(s.ok) / (s.last - s.first).Seconds()
		}
	}
	return total
}

// segments cuts a closed loop's records into n equal stretches of time
// by when each request was sent.
func segments(recs []record, dur time.Duration, n int) [][]record {
	out := make([][]record, n)
	for _, r := range recs {
		k := int(int64(n) * int64(r.sent) / int64(dur))
		if k >= n {
			k = n - 1
		}
		out[k] = append(out[k], r)
	}
	return out
}

// write runs the ingest_refresh write schedule on one connection until
// ctx is cancelled: an ingest batch every 1/ingestPerSecond s, and a
// forced refresh before batch refreshFirst of the phase and every
// refreshEvery batches after it. Batches continue from firstBatch; it
// returns the next unsent one. The request that the cancellation
// interrupts is not counted.
func (g *loadgen) write(ctx context.Context, firstBatch int) int {
	c := newClient()
	defer c.close()
	start := time.Now()
	batch := firstBatch
	for k := 0; ; k++ {
		due := time.Duration(float64(k) * float64(time.Second) / ingestPerSecond)
		select {
		case <-ctx.Done():
			return batch
		case <-time.After(time.Until(start.Add(due))):
		}
		if k >= refreshFirst && (k-refreshFirst)%refreshEvery == 0 {
			status, body, err := c.post(ctx, g.urls[0]+"/v1/refresh", []byte(`{"force":true}`))
			if ctx.Err() != nil {
				return batch
			}
			g.chk.checkWrite("refresh", status, body, err)
		}
		status, body, err := c.post(ctx, g.urls[0]+"/v1/ingest", g.seq.w.ingestBody(batch))
		if ctx.Err() != nil {
			return batch
		}
		g.chk.checkWrite("ingest", status, body, err)
		batch++
	}
}
