package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"acqp/internal/query"
)

// The serve hot path. A cache-hit /v1/plan request repeats byte for
// byte, yet the regular path re-pays the mux walk, JSON decode, SQL
// parse, canonicalization, and JSON encode on every repeat. The replay
// slot of its plan-cache entry (cache.go) holds the answer serialized
// once; a request with identical body bytes replays it with only
// elapsed_ms and request_id spliced in, from pooled buffers.
//
// Standalone and clustered nodes share this path. Slots are filled only
// for answers that are a pure function of (body bytes, statistics epoch,
// key owner): a planned cache hit — on a clustered node either its own
// entry or its copy of the owner's (cluster_serve.go) — with no fault
// what-if, no trace section, cache not bypassed, outcome not degraded,
// shared or forwarded. Eviction and the epoch purge end a slot with its
// entry, a lookup refuses a slot built under another epoch, and a
// clustered node replays only while the slot's planner still owns the
// key and, for a copy, is steady (answersFor). Forwarded hops
// (X-Acq-Cluster-Hops) always take the regular path, so the owner counts
// every hop it receives.

// fastScratch is the request-scoped buffer set for the fast path: the
// body read buffer, the response assembly buffer, and the generated
// request-ID buffer, recycled through a pool so steady-state hits
// allocate only the ID string and its header slot.
type fastScratch struct {
	body []byte
	out  []byte
	id   []byte
}

var fastScratchPool = sync.Pool{New: func() any {
	return &fastScratch{
		body: make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
		id:   make([]byte, 0, 32),
	}
}}

// headerJSON is the Content-Type value shared across replayed responses;
// handlers never mutate header value slices, so sharing is safe.
var headerJSON = []string{"application/json"}

// serveFast answers a POST /v1/plan request whose exact body bytes fill
// a plan-cache entry's replay slot. A false return means the request
// must take the regular path; the consumed body bytes have then been
// stitched back onto r.Body, so the regular handlers see the request
// untouched.
func (s *Server) serveFast(w http.ResponseWriter, r *http.Request, start time.Time) bool {
	sc := fastScratchPool.Get().(*fastScratch)
	body, rerr := readBody(sc.body[:0], r.Body, maxBodyBytes)
	sc.body = body
	id := r.Header.Get("X-Request-Id")
	var slot replaySlot
	ok := false
	if rerr == nil && len(body) <= maxBodyBytes && jsonSafe(id) {
		slot, ok = s.cache.replay(body, s.Epoch())
		if ok && s.cluster != nil {
			ok = s.answersFor(slot.node, slot.route)
		}
	}
	if !ok {
		// Miss: replay the consumed bytes (plus the unread remainder of an
		// oversized body, or the read error) for the regular handler.
		replay := io.Reader(bytes.NewReader(append([]byte(nil), body...)))
		if rerr != nil {
			replay = io.MultiReader(replay, errReader{rerr})
		} else if len(body) > maxBodyBytes {
			replay = io.MultiReader(replay, r.Body)
		}
		r.Body = io.NopCloser(replay)
		fastScratchPool.Put(sc)
		return false
	}
	count(&s.metrics.inFlight, 1)
	if id == "" {
		sc.id = appendRequestID(sc.id[:0], s.fastIDPrefix, count(&s.reqSeq, 1))
		id = string(sc.id)
	}
	h := w.Header()
	h["X-Request-Id"] = []string{id}
	h["Content-Type"] = headerJSON
	out := append(sc.out[:0], slot.prefix...)
	out = append(out, `,"elapsed_ms":`...)
	out = strconv.AppendFloat(out, float64(time.Since(start))/float64(time.Millisecond), 'f', -1, 64)
	out = append(out, `,"request_id":"`...)
	out = append(out, id...)
	out = append(out, '"')
	out = append(out, slot.suffix...)
	out = append(out, '\n')
	w.WriteHeader(http.StatusOK)
	n, _ := w.Write(out)
	count(&s.metrics.cacheHits, 1)
	s.metrics.recordRequest(epPlan, outcomeHit, time.Since(start))
	s.metrics.inFlight.Add(-1)
	s.logAccess(start, id, r, http.StatusOK, n)
	sc.out = out
	fastScratchPool.Put(sc)
	return true
}

// maybeInstallFast offers a just-served /v1/plan cache hit to its
// entry's replay slot when the answer is a pure function of the body
// bytes, the epoch and the key's owner. raw is the request body exactly
// as received.
func (s *Server) maybeInstallFast(raw []byte, req planRequest, p plannerParams, canon query.Query, resp planResponse) {
	if req.Faults != nil || req.NoCache || p.traced || !resp.Cached {
		return
	}
	if resp.Degraded || resp.Shared || resp.Forwarded || resp.Trace != nil {
		return
	}
	resp.RequestID, resp.ElapsedMS = "", 0
	blob, err := json.Marshal(resp)
	if err != nil {
		return
	}
	// With the per-request fields blanked and the omitempty tail fields
	// empty, elapsed_ms is followed only by the closing brace or the node
	// attribution (a bare `"` never occurs inside a JSON string, so the
	// mark is unambiguous); if the response shape ever changes, refuse to
	// install rather than splice into the wrong place.
	const mark = `,"elapsed_ms":0`
	i := bytes.Index(blob, []byte(mark))
	if i < 0 {
		return
	}
	suffix := blob[i+len(mark):]
	if string(suffix) != "}" && !bytes.HasPrefix(suffix, []byte(`,"node":`)) {
		return
	}
	s.cache.offer(cacheKey(p, canon, resp.Epoch), replaySlot{
		body:   string(raw),
		prefix: blob[:i],
		suffix: suffix,
		node:   resp.Node,
		route:  resp.Key,
	})
}

// readBody appends the reader's bytes to dst, stopping shortly after
// limit so oversized bodies are detected without being fully buffered.
func readBody(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		if len(dst) > limit {
			return dst, nil
		}
	}
}

// errReader replays a body-read error to the regular handler after a
// fast-path miss consumed the readable prefix.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// jsonSafe reports whether id serializes to itself inside a JSON string
// under encoding/json's escaping rules (including HTML escaping).
// Unsafe IDs take the slow path rather than being escaped here.
func jsonSafe(id string) bool {
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendRequestID renders the generated request-ID format — the
// server's start-stamp prefix plus "%06x" of the sequence — without
// going through fmt.
func appendRequestID(b, prefix []byte, seq int64) []byte {
	b = append(b, prefix...)
	var tmp [16]byte
	t := strconv.AppendInt(tmp[:0], seq, 16)
	for i := len(t); i < 6; i++ {
		b = append(b, '0')
	}
	return append(b, t...)
}
