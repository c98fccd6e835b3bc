// Command acqserved runs the acquisitional query-planning service: an
// HTTP/JSON API over the repository's planners with a canonical-query
// plan cache, a bounded planning worker pool, deadline-aware degradation,
// and a drift-triggered statistics refresher.
//
// Usage:
//
//	acqserved -schema "hour:24:1,light:32:100,temp:32:100" \
//	          -data history.csv [-addr :8077] [-cache 256] \
//	          [-workers 0] [-queue 0] [-timeout 2s] [-model empirical] \
//	          [-window 4096] [-refresh 30s] [-drift 0.05] \
//	          [-access-log] [-debug-addr localhost:6060] \
//	          [-peers http://h1:8077,http://h2:8077] [-advertise URL] \
//	          [-gossip-interval 1s] [-fail-after 3] [-cluster-seed 1] \
//	          [-forward-retries 1] [-max-failovers 1] \
//	          [-breaker-threshold 5] [-breaker-cooldown 3s] \
//	          [-chaos-seed 0] [-chaos-drop 0] [-chaos-5xx 0] \
//	          [-chaos-truncate 0] [-chaos-latency 0]
//
// Endpoints: POST /v1/plan, /v1/execute, /v1/ingest, /v1/refresh; GET
// /v1/stats, /metrics (Prometheus text), /healthz, /readyz. See
// internal/serve for the request and response schemas. Pass -addr :0 to
// bind an ephemeral port; the chosen address is printed on the
// "listening" line.
//
// With -peers (or -advertise), the process joins a sharded planning
// cluster: each canonical query has one rendezvous-hashed shard owner
// that plans and caches it, other nodes forward /v1/plan to it, and
// statistics epochs stay coherent across nodes via gossip (GET
// /v1/cluster shows the membership view). -advertise is the URL peers
// reach this node at; it defaults from the bound address when that
// address names a concrete host.
//
// Cluster forwarding is resilient: a failed forward retries with capped
// backoff (-forward-retries, bounded by a cluster-wide retry budget),
// fails over along the rendezvous order (-max-failovers), and per-peer
// circuit breakers (-breaker-threshold, -breaker-cooldown) skip
// persistently failing peers until a half-open probe succeeds. The
// -chaos-* flags install the deterministic seeded network-fault layer
// (internal/chaos) on the cluster transport — the ci.sh chaos smoke
// uses them; leave them zero in production.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"acqp"
	"acqp/internal/chaos"
	"acqp/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address (use :0 for an ephemeral port)")
	schemaSpec := flag.String("schema", "", "comma-separated name:K:cost attribute triples")
	dataPath := flag.String("data", "", "historical data CSV (header row of attribute names)")
	cacheSize := flag.Int("cache", 0, "plan cache entries (0 = default 256)")
	workers := flag.Int("workers", 0, "planning workers (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "planning queue depth (0 = 4x workers, negative = none)")
	timeout := flag.Duration("timeout", 0, "default planning deadline (0 = 2s)")
	window := flag.Int("window", 0, "sliding statistics window capacity (0 = 4096)")
	refresh := flag.Duration("refresh", 0, "background drift-check interval (0 = on-demand /v1/refresh only)")
	drift := flag.Float64("drift", 0, "total-variation drift threshold for an epoch bump (0 = 0.05)")
	parallelism := flag.Int("parallelism", 0, "default planner worker count per request (0 = 1, capped at GOMAXPROCS)")
	defaultModel := flag.String("model", "", "default statistics backend for requests without a model field: empirical, independent, chowliu, or bn (empty = empirical)")
	accessLog := flag.Bool("access-log", false, "write one structured log line per request to stderr")
	debugAddr := flag.String("debug-addr", "", "optional separate listener for net/http/pprof (e.g. localhost:6060); disabled when empty")
	peers := flag.String("peers", "", "comma-separated peer base URLs; joins a sharded planning cluster when set")
	advertise := flag.String("advertise", "", "URL peers reach this node at (default: derived from the bound address when it names a concrete host)")
	gossipInterval := flag.Duration("gossip-interval", time.Second, "cluster heartbeat/anti-entropy cadence")
	failAfter := flag.Int("fail-after", 3, "consecutive failed exchanges before a peer is declared dead")
	clusterSeed := flag.Uint64("cluster-seed", 1, "seed for the deterministic gossip jitter")
	forwardRetries := flag.Int("forward-retries", 0, "retries per forwarded plan request before failover (0 = default 1, negative = none)")
	maxFailovers := flag.Int("max-failovers", 0, "additional rendezvous candidates tried after the owner fails (0 = default 1, negative = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures that open a peer's circuit breaker (0 = default 5, negative = never)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker dwell before a half-open probe (0 = default 3s)")
	chaosSeed := flag.Uint64("chaos-seed", 0, "enable deterministic network chaos on the cluster transport with this seed (0 = off; smoke-test harness only)")
	chaosDrop := flag.Float64("chaos-drop", 0, "chaos: per-request drop probability on every inter-node link")
	chaos5xx := flag.Float64("chaos-5xx", 0, "chaos: per-request synthetic 5xx probability on every inter-node link")
	chaosTruncate := flag.Float64("chaos-truncate", 0, "chaos: per-response body-truncation probability on every inter-node link")
	chaosLatency := flag.Duration("chaos-latency", 0, "chaos: fixed extra latency injected on every inter-node request")
	flag.Parse()

	if *schemaSpec == "" || *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	s, err := parseSchema(*schemaSpec)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*dataPath)
	if err != nil {
		fatal(err)
	}
	tbl, err := acqp.ReadCSV(s, f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	// Listen before building the server: when clustering, the advertised
	// URL defaults from the address actually bound.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	cfg := serve.Config{
		Schema:          s,
		History:         tbl,
		CacheSize:       *cacheSize,
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultTimeout:  *timeout,
		PlanParallelism: *parallelism,
		DefaultModel:    *defaultModel,
		WindowSize:      *window,
		RefreshInterval: *refresh,
		DriftThreshold:  *drift,
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *peers != "" || *advertise != "" {
		self, err := advertiseURL(*advertise, ln.Addr())
		if err != nil {
			fatal(err)
		}
		cfg.Cluster = &serve.ClusterConfig{
			Self:             self,
			Peers:            splitPeers(*peers),
			GossipInterval:   *gossipInterval,
			FailAfter:        *failAfter,
			Seed:             *clusterSeed,
			ForwardRetries:   *forwardRetries,
			MaxFailovers:     *maxFailovers,
			BreakerThreshold: *breakerThreshold,
			BreakerCooldown:  *breakerCooldown,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "acqserved: "+format+"\n", args...)
			},
		}
		if *chaosSeed != 0 {
			// The chaos transport carries both forwarded plan requests and
			// gossip, so injected faults hit planning and failure detection
			// coherently — exactly what the ci.sh chaos smoke exercises.
			tr := chaos.New(chaos.Config{Seed: *chaosSeed, Self: self})
			if err := tr.SetDefault(chaos.Rule{
				PDrop:     *chaosDrop,
				P5xx:      *chaos5xx,
				PTruncate: *chaosTruncate,
				Latency:   *chaosLatency,
			}); err != nil {
				fatal(err)
			}
			cfg.Cluster.Transport = tr
			fmt.Printf("acqserved: network chaos enabled (seed %d, drop %g, 5xx %g, truncate %g, latency %s)\n",
				*chaosSeed, *chaosDrop, *chaos5xx, *chaosTruncate, *chaosLatency)
		}
		fmt.Printf("acqserved: cluster node %s, %d seed peer(s)\n", self, len(cfg.Cluster.Peers))
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fatal(err)
	}
	// Full request/response timeouts, not just the header read: a stalled
	// client must not pin a connection (and its MaxBytesReader body)
	// indefinitely.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// The pprof listener is opt-in and separate from the API listener so
	// profiling endpoints are never exposed on the service address.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv := &http.Server{Handler: debugMux, ReadHeaderTimeout: 5 * time.Second}
		fmt.Printf("acqserved: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := debugSrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "acqserved: debug listener: %v\n", err)
			}
		}()
		defer debugSrv.Close()
	}
	fmt.Printf("acqserved: %d attributes, %d history tuples\n", s.NumAttrs(), tbl.NumRows())
	fmt.Printf("acqserved: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err) // Serve never returns nil before Shutdown
	case <-ctx.Done():
	}
	fmt.Println("acqserved: shutting down")
	// Stop accepting requests first, then stop the planning pool, so no
	// request races the pool teardown.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "acqserved: http shutdown: %v\n", err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		fatal(err)
	}
	fmt.Println("acqserved: done")
}

// advertiseURL resolves the URL peers use to reach this node: the
// explicit -advertise value when given, otherwise derived from the
// bound address — which only works when that address names a concrete
// host (listening on ":8077" binds every interface, and peers cannot
// dial "[::]").
func advertiseURL(flagValue string, bound net.Addr) (string, error) {
	if flagValue != "" {
		return strings.TrimSuffix(flagValue, "/"), nil
	}
	host, port, err := net.SplitHostPort(bound.String())
	if err != nil {
		return "", fmt.Errorf("cluster: cannot derive -advertise from %q: %v", bound, err)
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		return "", fmt.Errorf("cluster: -advertise required when listening on %q (no concrete host to advertise)", bound)
	}
	return "http://" + net.JoinHostPort(host, port), nil
}

// splitPeers parses the -peers list, dropping empties and trailing
// slashes so URL identity comparisons are exact.
func splitPeers(spec string) []string {
	var peers []string
	for _, p := range strings.Split(spec, ",") {
		p = strings.TrimSuffix(strings.TrimSpace(p), "/")
		if p != "" {
			peers = append(peers, p)
		}
	}
	return peers
}

func parseSchema(spec string) (*acqp.Schema, error) {
	s := acqp.NewSchema()
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad attribute spec %q (want name:K:cost)", part)
		}
		k, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad domain size in %q: %v", part, err)
		}
		cost, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad cost in %q: %v", part, err)
		}
		if err := s.Add(acqp.Attribute{Name: fields[0], K: k, Cost: cost}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "acqserved: %v\n", err)
	os.Exit(1)
}
