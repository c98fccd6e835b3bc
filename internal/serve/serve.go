// Package serve implements a long-running acquisitional query-planning
// service over the repository's planners: an HTTP/JSON API that parses
// TinyDB-style SQL, canonicalizes the WHERE clause, and answers planning
// requests from an LRU plan cache backed by a bounded worker pool.
//
// The design follows the deployment the paper sketches in Section 1 — a
// basestation that compiles each user query into a conditional plan
// before disseminating it to the motes — hardened for multi-client use:
//
//   - Plans are cached per canonical query and statistics epoch, so the
//     exponential-cost planners run at most once per distinct query
//     (singleflight collapses concurrent duplicates onto one run).
//   - Planning runs on a fixed-size worker pool with a bounded queue;
//     when the queue is full, requests are shed with 503 rather than
//     piling up unboundedly.
//   - Each planning run carries a deadline. The greedy planner is an
//     anytime algorithm and degrades to the best plan found so far; the
//     exhaustive planner aborts and falls back to the best sequential
//     plan. Degraded plans are returned but never cached.
//   - A sliding window of ingested tuples (internal/stream.Window) feeds
//     a statistics refresher: when the windowed distribution drifts from
//     the one plans were built on, the epoch advances and stale cache
//     entries are invalidated.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acqp/internal/cluster"
	"acqp/internal/model"
	"acqp/internal/schema"
	"acqp/internal/stats"
	"acqp/internal/stream"
	"acqp/internal/table"
)

// Config parameterizes a Server. Zero values select the documented
// defaults.
type Config struct {
	// Schema is the attribute schema all queries are parsed against.
	// Required.
	Schema *schema.Schema
	// History is the initial training data; it seeds both the first
	// statistics epoch and the sliding window. Required, non-empty.
	History *table.Table

	// CacheSize bounds the plan cache entry count. Default 256.
	CacheSize int
	// Workers is the planning worker-pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) planning
	// jobs; beyond it requests are shed with 503. Default 4*Workers;
	// negative means no queue (admit only when a worker is idle).
	QueueDepth int
	// DefaultTimeout caps each planning run. A request's timeout_ms may
	// shorten it but never extend it. Default 2s.
	DefaultTimeout time.Duration
	// MaxSplits and SplitPoints are the greedy planner defaults applied
	// when a request does not set them. Defaults 5 and 8.
	MaxSplits   int
	SplitPoints int
	// ExhaustiveBudget caps exhaustive-search subproblem expansions.
	// Default 2,000,000.
	ExhaustiveBudget int
	// PlanParallelism is the default per-request planner worker count
	// applied when a request does not set parallelism. Requests may raise
	// it up to GOMAXPROCS. Default 1.
	PlanParallelism int

	// DefaultModel names the statistics backend planning runs use when a
	// request does not set its "model" field: one of model.Names()
	// ("empirical", "independent", "chowliu", "bn"). Default "empirical",
	// the raw per-epoch counts. Non-empirical defaults are refit eagerly
	// on every epoch bump.
	DefaultModel string

	// WindowSize is the sliding statistics window capacity. Default 4096.
	WindowSize int
	// RefreshInterval is the cadence of the background drift check; zero
	// disables it (refresh then happens only via the /v1/refresh endpoint).
	RefreshInterval time.Duration
	// DriftThreshold is the total-variation distance (max over
	// attributes) between the current epoch's distribution and the
	// window at which a refresh bumps the epoch. Default 0.05.
	DriftThreshold float64

	// AccessLog, when set, receives one structured line per HTTP request
	// (request ID, method, path, status, bytes, duration). Nil disables
	// access logging. The writer must be safe for concurrent use
	// (os.File and bytes-free loggers are).
	AccessLog io.Writer

	// Cluster, when set, joins this server to a sharded planning
	// cluster: /v1/plan requests for keys another node owns are
	// forwarded there, and statistics epochs stay coherent via gossip.
	// Nil keeps the server standalone.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxSplits == 0 {
		c.MaxSplits = 5
	}
	if c.SplitPoints == 0 {
		c.SplitPoints = 8
	}
	if c.ExhaustiveBudget == 0 {
		c.ExhaustiveBudget = 2_000_000
	}
	if c.PlanParallelism <= 0 {
		c.PlanParallelism = 1
	} else if c.PlanParallelism > runtime.GOMAXPROCS(0) {
		c.PlanParallelism = runtime.GOMAXPROCS(0)
	}
	if c.WindowSize == 0 {
		c.WindowSize = 4096
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.05
	}
	if c.DefaultModel == "" {
		c.DefaultModel = model.NameEmpirical
	}
	return c
}

// Server is the planning service. It implements http.Handler; transport
// concerns (listening, TLS, connection shutdown) belong to the caller's
// http.Server.
type Server struct {
	cfg Config
	s   *schema.Schema

	baseCtx context.Context // cancelled by Shutdown; parent of every planning deadline
	cancel  context.CancelFunc

	mu      sync.RWMutex // guards dist, epoch, and histTbl
	dist    stats.Dist
	epoch   uint64
	histTbl *table.Table // the epoch's training table; fitted models build from it

	// Fitted-model cache (model.go): one slot per model name, valid for
	// modelEpoch only.
	modelsMu   sync.Mutex
	modelEpoch uint64
	fitted     map[string]*fittedModel

	wmu    sync.Mutex // guards window (stream.Window is not goroutine-safe)
	window *stream.Window

	cache   *lruCache
	flight  *flightGroup
	jobs    chan func()
	wg      sync.WaitGroup // workers + refresher
	metrics metrics
	mux     *http.ServeMux

	// Cluster membership, nil when standalone. clusterSelf is the
	// advertised URL and forwardClient carries forwarded /v1/plan hops.
	cluster       *cluster.Node
	clusterSelf   string
	forwardClient *http.Client

	// Forwarding resilience (set by startCluster): resolved retry/
	// failover/breaker parameters, the injected cluster clock, the
	// per-peer breaker table, the shared retry budget, and the transport
	// the forward client runs on (surfaced so /metrics can report chaos
	// injection counters when the smoke harness installs one).
	resil            resilience
	clusterNow       func() time.Time
	breakMu          sync.Mutex
	breakers         map[string]*breaker
	budget           *retryBudget
	forwardTransport http.RoundTripper

	started      time.Time
	reqSeq       atomic.Int64 // generated X-Request-Id sequence
	fastIDPrefix []byte       // the started-stamp half of generated request IDs

	// hookBeforeFallback, when non-nil, runs immediately before the
	// exhaustive planner's sequential degradation fallback. Tests use it
	// to pin that Shutdown interrupts an in-flight fallback run.
	hookBeforeFallback func()
}

// New builds and starts a Server: workers begin immediately, and the
// background refresher starts when Config.RefreshInterval is set. Callers
// own transport shutdown; Shutdown stops the pool and refresher.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Schema == nil || cfg.Schema.NumAttrs() == 0 {
		return nil, fmt.Errorf("serve: config needs a non-empty schema")
	}
	if cfg.History == nil || cfg.History.NumRows() == 0 {
		return nil, fmt.Errorf("serve: config needs non-empty historical data")
	}
	if !model.KnownName(cfg.DefaultModel) {
		return nil, fmt.Errorf("serve: unknown default model %q (want one of %v)", cfg.DefaultModel, model.Names())
	}
	win, err := stream.NewWindow(cfg.Schema, cfg.WindowSize)
	if err != nil {
		return nil, fmt.Errorf("serve: %v", err)
	}
	var row []schema.Value
	start := cfg.History.NumRows() - cfg.WindowSize
	if start < 0 {
		start = 0
	}
	for r := start; r < cfg.History.NumRows(); r++ {
		row = cfg.History.Row(r, row)
		win.Push(row)
	}
	ctx, cancel := context.WithCancel(context.Background()) //acqlint:ignore ctxbg server-lifetime base context owned by the Server, cancelled in Close
	s := &Server{
		cfg:        cfg,
		s:          cfg.Schema,
		baseCtx:    ctx,
		cancel:     cancel,
		dist:       stats.NewEmpirical(cfg.History),
		epoch:      1,
		histTbl:    cfg.History,
		modelEpoch: 1,
		fitted:     make(map[string]*fittedModel),
		window:     win,
		cache:      newLRUCache(cfg.CacheSize),
		flight:     newFlightGroup(),
		jobs:       make(chan func(), cfg.QueueDepth),
		started:    time.Now(),
	}
	s.fastIDPrefix = idPrefix(s.started)
	s.mux = http.NewServeMux()
	// The API is versioned under /v1/; the operational endpoints are not.
	s.mux.HandleFunc("/v1/plan", s.handlePlan)
	s.mux.HandleFunc("/v1/execute", s.handleExecute)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/refresh", s.handleRefresh)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	if cfg.Cluster != nil {
		if err := s.startCluster(cfg.Cluster); err != nil {
			cancel()
			return nil, fmt.Errorf("serve: %v", err)
		}
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go s.worker()
	}
	if cfg.RefreshInterval > 0 {
		s.wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
		go s.refresher()
	}
	return s, nil
}

// idPrefix renders the instance half of generated request IDs: the full
// 64-bit start timestamp plus a random per-process salt. The previous
// scheme truncated the timestamp to its low 32 bits (~4.3 s of nanosecond
// range), so two nodes — or one node restarted — starting within the same
// truncated window minted colliding ID streams; the salt breaks ties even
// for nodes whose clocks return the identical nanosecond.
func idPrefix(started time.Time) []byte {
	var salt [4]byte
	if _, err := rand.Read(salt[:]); err != nil {
		// crypto/rand failing is effectively unheard of; degrade to a
		// PID-derived salt rather than refusing to start.
		binary.BigEndian.PutUint32(salt[:], uint32(os.Getpid()))
	}
	return []byte(fmt.Sprintf("%016x-%x-", uint64(started.UnixNano()), salt))
}

// requestIDKey carries the per-request trace ID through the request
// context so handlers can echo it in response bodies.
type requestIDKey struct{}

// requestIDFrom returns the request's trace ID, or "" outside ServeHTTP.
func requestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the response status and body size for the
// access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// ServeHTTP implements http.Handler. Every request carries a trace ID:
// the caller's X-Request-Id when present, otherwise a generated one. The
// ID is echoed in the X-Request-Id response header, surfaced in JSON
// response bodies, and stamps the structured access-log line when
// Config.AccessLog is set.
//
// /v1/plan requests from clients (not forwarded hops) first consult the
// plan cache's replay slots (fast.go): a body that byte-matches a
// previously served deterministic answer is replayed from its
// pre-serialized blob without touching the mux, the JSON decoder, or the
// SQL parser.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/plan" && r.Header[hopsHeader] == nil {
		if s.serveFast(w, r, time.Now()) {
			return
		}
	}
	id := r.Header.Get("X-Request-Id")
	if id == "" {
		id = fmt.Sprintf("%s%06x", s.fastIDPrefix, count(&s.reqSeq, 1))
	}
	w.Header().Set("X-Request-Id", id)
	req := r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id))
	if s.cfg.AccessLog == nil {
		s.mux.ServeHTTP(w, req)
		return
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, req)
	s.logAccess(start, id, r, rec.status, rec.bytes)
}

// logAccess writes one request's access-log line when Config.AccessLog
// is set.
func (s *Server) logAccess(start time.Time, id string, r *http.Request, status, n int) {
	if s.cfg.AccessLog == nil {
		return
	}
	fmt.Fprintf(s.cfg.AccessLog, "time=%s request_id=%s method=%s path=%s status=%d bytes=%d dur_ms=%.3f\n",
		start.UTC().Format(time.RFC3339Nano), id, r.Method, r.URL.Path, status, n,
		float64(time.Since(start))/float64(time.Millisecond))
}

// Epoch returns the current statistics epoch.
func (s *Server) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Shutdown cancels all in-flight planning (greedy runs degrade, the
// exhaustive search aborts), stops the workers and the refresher, and
// waits for them up to ctx's deadline. HTTP transport shutdown is the
// caller's responsibility and should happen first, so no new requests
// race the pool teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cluster != nil {
		// Announce the leave while peers can still reach us; the gossip
		// loop runs under baseCtx and stops with everything else.
		s.cluster.Stop(ctx)
		s.forwardClient.CloseIdleConnections()
	}
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown wait: %w", ctx.Err())
	}
}

// worker executes queued planning jobs until Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.jobs:
			job()
		case <-s.baseCtx.Done():
			return
		}
	}
}

// submit offers a job to the pool without blocking; false means the queue
// is full and the request must be shed.
func (s *Server) submit(job func()) bool {
	select {
	case s.jobs <- job:
		return true
	default:
		return false
	}
}

// snapshot returns the distribution and epoch a planning run should use.
// The pair is read atomically so a concurrent refresh cannot mix an old
// distribution with a new epoch.
func (s *Server) snapshot() (stats.Dist, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dist, s.epoch
}
