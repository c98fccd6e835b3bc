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
// Slots are filled only for answers that are a pure function of (body
// bytes, statistics epoch): standalone server, planned cache hit, no
// fault what-if, no trace section, cache not bypassed, outcome not
// degraded or shared. Eviction and the epoch purge end a slot with its
// entry, and a lookup refuses a slot built under another epoch.

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
	var prefix []byte
	if rerr == nil && len(body) <= maxBodyBytes && jsonSafe(id) {
		prefix = s.cache.replay(body, s.Epoch())
	}
	if prefix == nil {
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
	out := append(sc.out[:0], prefix...)
	out = append(out, `,"elapsed_ms":`...)
	out = strconv.AppendFloat(out, float64(time.Since(start))/float64(time.Millisecond), 'f', -1, 64)
	out = append(out, `,"request_id":"`...)
	out = append(out, id...)
	out = append(out, '"', '}', '\n')
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
// bytes and the epoch. raw is the request body exactly as received.
func (s *Server) maybeInstallFast(raw []byte, req planRequest, p plannerParams, canon query.Query, resp planResponse) {
	if s.cluster != nil || req.Faults != nil || req.NoCache || p.traced || !resp.Cached {
		return
	}
	if resp.Degraded || resp.Shared || resp.Forwarded || resp.Node != "" || resp.Trace != nil {
		return
	}
	resp.RequestID, resp.ElapsedMS = "", 0
	blob, err := json.Marshal(resp)
	if err != nil {
		return
	}
	// With the per-request fields blanked and the omitempty tail fields
	// empty, the serialization must end in the elapsed_ms member; if the
	// response shape ever changes, refuse to install rather than splice
	// into the wrong place.
	const tail = `,"elapsed_ms":0}`
	if !bytes.HasSuffix(blob, []byte(tail)) {
		return
	}
	s.cache.offer(cacheKey(p, canon, resp.Epoch), string(raw), blob[:len(blob)-len(tail)])
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
