package main

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"acqp/internal/datagen"
	"acqp/internal/query"
	"acqp/internal/schema"
	"acqp/internal/table"
)

// The fixed world every workload runs in: the lab simulator at the
// scale of the repository's smoke tests, served through the plain
// integer schema acqserved parses from its -schema flag (no
// discretizers, so SQL thresholds are bin values).
const (
	schemaSpec  = "hour:24:1,nodeid:45:1,voltage:16:1,light:32:100,temp:32:100,humidity:32:100"
	historyRows = 8000
	historySeed = 1
	// The ingest stream is a second lab run. Its diurnal cycle is
	// compressed into streamRows rows, so successive 4,096-tuple windows
	// see different hours: the statistics drift.
	streamRows = 64000
	streamSeed = 2
	windowSize = 4096 // acqserved's default -window
	// querySeed generates the queries themselves. The set of queries a
	// workload asks is part of the benchmark, like the table: it is the
	// same on every run, so cost_ratio and the latency percentiles are
	// taken over the same questions whatever -seed says. -seed decides
	// the order they arrive in, how each is spelled, and which node of a
	// cluster each is sent to.
	querySeed = 1
)

// workloadSpec is one named traffic mix. Rates are frozen constants,
// set once from the closed-loop throughput measured on the commit that
// added the benchmark (see README.md); they are never calibrated at run
// time.
type workloadSpec struct {
	name         string
	why          string
	nodes        int    // acqserved processes (1, or 3 on loopback)
	path         string // endpoint the readers POST to
	model        string // "model" request field, empty for the server default
	pool         int    // distinct queries cycled through; 0 means every request is a new query
	minPreds     int    // predicates per query, inclusive range
	maxPreds     int    //
	variantEvery int    // one request in this many is a never-seen respelling of its pool query; 0 for none
	rate         int    // open-loop arrival rate, requests/s
	readers      int    // connections sending the read stream
	writes       bool   // one more connection ingests and refreshes on a schedule
}

var workloads = []workloadSpec{
	{name: "plan_hit", nodes: 1, path: "/v1/plan", pool: 64, minPreds: 2, maxPreds: 4, variantEvery: 4, rate: 2000, readers: conns,
		why: "64-query pool inside the 256-entry cache: 75% byte-identical repeats (fast-path replay), 25% new spellings (parse, canonicalize, LRU hit); planner idle"},
	{name: "plan_miss", nodes: 1, path: "/v1/plan", minPreds: 3, maxPreds: 3, rate: 20, readers: conns,
		why: "every request a distinct canonical query, default greedy on empirical counts: opt x stats inner loop; cache and fast path do nothing"},
	{name: "plan_miss_bn", nodes: 1, path: "/v1/plan", model: "bn", minPreds: 3, maxPreds: 3, rate: 2, readers: conns,
		why: "the plan_miss generator with model=bn: Bayesian-network inference dominates planning; target of the bn-within-2x-of-empirical work"},
	{name: "execute_hit", nodes: 1, path: "/v1/execute", pool: 64, minPreds: 2, maxPreds: 4, rate: 1000, readers: conns,
		why: "cached plans run over the 4,096-tuple window on every request: exec and window materialization dominate, planning does nothing"},
	{name: "cluster3_hit", nodes: 3, path: "/v1/plan", pool: 64, minPreds: 2, maxPreds: 4, rate: 1000, readers: conns,
		why: "three nodes on loopback, every query entering at each node in turn: two thirds of the hits pay an owner forward hop; every other layer idle"},
	{name: "ingest_refresh", nodes: 1, path: "/v1/plan", pool: 8, minPreds: 2, maxPreds: 4, rate: 1000, readers: 1, writes: true,
		why: "one reader on an 8-query pool beside a writer ingesting 50 batches/s and forcing a refresh every 2 s: purge, refit and re-plan cost lands on the reader"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// Write schedule of the ingest_refresh workload. A refresh is due
// before batch refreshFirst and then every refreshEvery batches, that is
// one second into each phase and every two seconds after: once in each
// segment of a phase, and always with the same rows in the window it
// installs. After each one the single reader plans its pool again, one
// query behind the other, and the requests that come due meanwhile
// wait. With a pool of 8 that is about one request in twenty: well
// under the one in ten at which p90 would sit on the edge between the
// two kinds of request and jump from run to run (a pool of 16 put it
// there), and moving further under it as planning gets cheaper. The
// waiting requests show in loadgen.p99_ms; what purge, refit and
// re-planning cost the server shows in sat_rps and cpu_ms_per_req.
const (
	ingestBatchRows = 32
	ingestPerSecond = 50
	refreshFirst    = 50
	refreshEvery    = 100
)

// warmDistinct is how many one-off queries warm a workload that has no
// pool: enough to fit the requested model and page the planner in.
const warmDistinct = 4

// rng is splitmix64: a tiny seedable generator, so a request sequence is
// a pure function of (seed, stream) with no shared state.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// Streams keep the generators of one seed independent of each other.
const (
	streamQueries uint64 = iota + 1
	streamSequence
	streamSample
)

// world is the data every workload shares.
type world struct {
	s      *schema.Schema
	tbl    *table.Table // the history acqserved loads
	csv    []byte       // the same table as the CSV handed to the server
	cum    [][]float64  // cum[a][v] = P(X_a <= v), for choosing predicate ranges
	stream *table.Table // rows the ingest_refresh writer sends, in order
}

// parseSchema reads the name:K:cost triples of acqserved's -schema flag.
func parseSchema(spec string) (*schema.Schema, error) {
	s := schema.New()
	for _, part := range strings.Split(spec, ",") {
		f := strings.Split(part, ":")
		if len(f) != 3 {
			return nil, fmt.Errorf("bench: bad schema triple %q", part)
		}
		k, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("bench: bad domain size in %q: %w", part, err)
		}
		cost, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bench: bad cost in %q: %w", part, err)
		}
		if err := s.Add(schema.Attribute{Name: f[0], K: k, Cost: cost}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func newWorld() (*world, error) {
	s, err := parseSchema(schemaSpec)
	if err != nil {
		return nil, err
	}
	w := &world{s: s}
	var buf bytes.Buffer
	lab := datagen.Lab(datagen.LabConfig{Motes: 45, Rows: historyRows, Seed: historySeed, QuietMotes: 6})
	if err := lab.WriteCSV(&buf); err != nil {
		return nil, err
	}
	w.csv = buf.Bytes()
	// Read the CSV back the way the server does, so the in-process
	// reference plans are built on the very table it serves.
	tbl, err := table.ReadCSV(w.s, bytes.NewReader(w.csv))
	if err != nil {
		return nil, err
	}
	w.tbl = tbl
	w.cum = make([][]float64, w.s.NumAttrs())
	for a := range w.cum {
		k := w.s.K(a)
		c := make([]float64, k)
		for _, v := range tbl.Col(a) {
			c[v]++
		}
		for v := 1; v < k; v++ {
			c[v] += c[v-1]
		}
		for v := range c {
			c[v] /= float64(tbl.NumRows())
		}
		w.cum[a] = c
	}
	w.stream = datagen.Lab(datagen.LabConfig{Motes: 45, Rows: streamRows, Seed: streamSeed, QuietMotes: 6})
	return w, nil
}

// window returns the rows the server's sliding window holds at start-up.
func (w *world) window() *table.Table {
	return w.tbl.Slice(w.tbl.NumRows()-windowSize, w.tbl.NumRows())
}

// randQuery draws a conjunctive query with n predicates in
// [minPreds, maxPreds], at least two of them on the expensive sensed
// attributes, each with a marginal selectivity between a quarter and
// three quarters: the regime where predicate order matters and a
// planner has something to decide.
func (w *world) randQuery(r *rng, minPreds, maxPreds int) query.Query {
	n := minPreds + r.intn(maxPreds-minPreds+1)
	sensed := []int{datagen.LabLight, datagen.LabTemp, datagen.LabHumidity}
	shuffle(r, sensed)
	rest := []int{datagen.LabHour, datagen.LabNodeID, datagen.LabVoltage, sensed[2]}
	shuffle(r, rest)
	attrs := append([]int{sensed[0], sensed[1]}, rest...)[:n]
	sort.Ints(attrs)
	preds := make([]query.Pred, 0, n)
	for _, a := range attrs {
		preds = append(preds, query.Pred{Attr: a, R: w.randRange(r, a)})
	}
	return query.Query{Preds: preds}
}

func (w *world) randRange(r *rng, a int) query.Range {
	k := w.s.K(a)
	best, bestMiss := query.Range{Lo: 0, Hi: schema.Value(k / 2)}, 2.0
	for try := 0; try < 32; try++ {
		lo, hi := r.intn(k), r.intn(k)
		if lo > hi {
			lo, hi = hi, lo
		}
		if lo == 0 && hi == k-1 {
			continue
		}
		sel := w.cum[a][hi]
		if lo > 0 {
			sel -= w.cum[a][lo-1]
		}
		rg := query.Range{Lo: schema.Value(lo), Hi: schema.Value(hi)}
		if sel >= 0.25 && sel <= 0.75 {
			return rg
		}
		if miss := abs(sel - 0.5); miss < bestMiss {
			best, bestMiss = rg, miss
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func shuffle(r *rng, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Spellings of one range predicate. Every form keeps a space after each
// operator: the lexer mis-steps over the character that follows "<=" or
// ">=", so "3<=light" does not parse.
func (w *world) predSQL(r *rng, p query.Pred, canonical bool) string {
	name, lo, hi, top := w.s.Name(p.Attr), int(p.R.Lo), int(p.R.Hi), w.s.K(p.Attr)-1
	form := 0
	if !canonical {
		form = r.intn(3)
	}
	switch {
	case lo == hi && form == 0:
		return fmt.Sprintf("%s = %d", name, lo)
	case lo == 0 && form == 0:
		return fmt.Sprintf("%s <= %d", name, hi)
	case hi == top && form == 0:
		return fmt.Sprintf("%s >= %d", name, lo)
	case form == 1:
		return fmt.Sprintf("%s BETWEEN %d AND %d", name, lo, hi)
	case form == 2:
		return fmt.Sprintf("%s >= %d AND %s <= %d", name, lo, name, hi)
	default:
		return fmt.Sprintf("%d <= %s <= %d", lo, name, hi)
	}
}

// canonicalSQL is the one spelling of a query that pool requests repeat
// byte for byte.
func (w *world) canonicalSQL(q query.Query) string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = w.predSQL(nil, p, true)
	}
	return "SELECT * WHERE " + strings.Join(parts, " AND ")
}

// variantSQL respells a query: shuffled predicate order, BETWEEN or
// split comparisons in place of chained ones, keyword case, and padding.
// It canonicalizes to the same key as canonicalSQL(q).
func (w *world) variantSQL(r *rng, q query.Query) string {
	order := make([]int, len(q.Preds))
	for i := range order {
		order[i] = i
	}
	shuffle(r, order)
	parts := make([]string, len(order))
	for i, j := range order {
		parts[i] = w.predSQL(r, q.Preds[j], false)
	}
	text := "SELECT * WHERE " + strings.Join(parts, " AND ")
	var sb strings.Builder
	lower := r.intn(2) == 0
	for _, tok := range strings.Fields(text) {
		if sb.Len() > 0 {
			sb.WriteString(strings.Repeat(" ", 1+r.intn(3)))
		}
		switch tok {
		case "SELECT", "WHERE", "AND", "BETWEEN":
			if lower {
				tok = strings.ToLower(tok)
			}
		}
		sb.WriteString(tok)
	}
	return sb.String()
}

// request is one generated HTTP request. The server sees only path and
// body; the rest lets the harness check the answer.
type request struct {
	path    string
	body    []byte
	sql     string // the statement inside body
	q       query.Query
	pool    int  // index into the workload's pool, -1 for a one-off query
	target  int  // entry node
	variant bool // a respelling of pool query `pool`
}

// body renders the JSON request. The generated SQL is plain ASCII, for
// which Go's %q quoting and JSON's agree.
func (w *world) body(spec workloadSpec, sqlText string) []byte {
	if spec.model != "" {
		return []byte(fmt.Sprintf(`{"sql":%q,"model":%q}`, sqlText, spec.model))
	}
	return []byte(fmt.Sprintf(`{"sql":%q}`, sqlText))
}

// sequence is a workload's request stream for one seed. Element i is
// always the i-th request generated, so the stream is identical however
// many connections consume it and however far a run gets.
//
// A pool workload walks its pool in rounds, each round a fresh seeded
// permutation, so any whole number of rounds asks every query equally
// often. Query p of round c enters the cluster at node (c + offset_p)
// mod nodes: every query visits every node in turn, and with three
// nodes exactly two of three requests are forwarded whichever node owns
// it. One request in every variantEvery, at a seeded position, is a
// spelling never sent before.
//
// A workload without a pool asks the fixed list of distinct queries in
// blocks of one second's open-loop traffic, each block in seeded order.
type sequence struct {
	w    *world
	spec workloadSpec
	pool []request // canonical spelling of each pool query; the warm-up sends these
	warm []request // one-off warm-up queries of a workload without a pool

	mu        sync.Mutex
	qr        *rng // draws the queries; seeded by querySeed only
	r         *rng // order, spellings, entry nodes; seeded by -seed
	reqs      []request
	seen      map[string]bool // canonical keys and bodies already used
	order     []int           // the current round's permutation of the pool
	offset    []int           // entry-node offset of each pool query
	variantAt int             // position of the respelling in the current group
	block     []request       // the current block of distinct queries
}

func newSequence(w *world, spec workloadSpec, seed int64) *sequence {
	s := &sequence{
		w: w, spec: spec, seen: make(map[string]bool),
		qr: newRNG(querySeed, streamQueries), r: newRNG(seed, streamSequence),
	}
	for len(s.pool) < spec.pool {
		req := s.distinct()
		req.pool = len(s.pool)
		s.seen[string(req.body)] = true
		s.pool = append(s.pool, req)
		s.order = append(s.order, req.pool)
		s.offset = append(s.offset, s.r.intn(spec.nodes))
	}
	if spec.pool == 0 {
		for len(s.warm) < warmDistinct {
			s.warm = append(s.warm, s.distinct())
		}
	}
	return s
}

// distinct draws the next query of the fixed list: one whose canonical
// key no earlier query had.
func (s *sequence) distinct() request {
	for {
		q := s.w.randQuery(s.qr, s.spec.minPreds, s.spec.maxPreds)
		if s.seen[q.Key()] {
			continue
		}
		s.seen[q.Key()] = true
		text := s.w.canonicalSQL(q)
		return request{path: s.spec.path, body: s.w.body(s.spec, text), sql: text, q: q, pool: -1}
	}
}

func (s *sequence) generate(i int) request {
	if s.spec.pool == 0 {
		at := i % s.spec.rate
		if at == 0 {
			s.block = s.block[:0]
			for len(s.block) < s.spec.rate {
				s.block = append(s.block, s.distinct())
			}
			for j := len(s.block) - 1; j > 0; j-- {
				k := s.r.intn(j + 1)
				s.block[j], s.block[k] = s.block[k], s.block[j]
			}
		}
		return s.block[at]
	}
	round, at := i/len(s.pool), i%len(s.pool)
	if at == 0 {
		shuffle(s.r, s.order)
	}
	req := s.pool[s.order[at]]
	req.target = (round + s.offset[req.pool]) % s.spec.nodes
	if ve := s.spec.variantEvery; ve > 0 {
		if i%ve == 0 {
			s.variantAt = s.r.intn(ve)
		}
		if i%ve == s.variantAt {
			for {
				text := s.w.variantSQL(s.r, req.q)
				body := s.w.body(s.spec, text)
				if !s.seen[string(body)] {
					s.seen[string(body)] = true
					req.body, req.sql, req.variant = body, text, true
					break
				}
			}
		}
	}
	return req
}

// at returns request i, generating the stream up to it on first use.
// A run generates what its phases are expected to send before it starts
// timing, so that the timed path finds the request already there.
func (s *sequence) at(i int) request {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.reqs) <= i {
		s.reqs = append(s.reqs, s.generate(len(s.reqs)))
	}
	return s.reqs[i]
}

// ingestBody renders batch b of the write stream as an /v1/ingest body.
func (w *world) ingestBody(b int) []byte {
	var sb strings.Builder
	sb.WriteString(`{"rows":[`)
	var row []schema.Value
	for i := 0; i < ingestBatchRows; i++ {
		row = w.stream.Row((b*ingestBatchRows+i)%w.stream.NumRows(), row)
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for a, v := range row {
			if a > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(v)))
		}
		sb.WriteByte(']')
	}
	sb.WriteString("]}")
	return []byte(sb.String())
}
