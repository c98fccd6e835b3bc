// Package cluster turns independent planning-service processes into a
// sharded planning cluster: a membership view maintained by HTTP
// join/leave and heartbeat-style gossip, rendezvous (highest-random-
// weight) hashing of canonical query keys to shard owners, and
// anti-entropy propagation of each node's statistics epoch so a
// drift-triggered refresh on one node invalidates every peer's stale
// cache entries coherently.
//
// The package is transport-thin by design: it owns the membership state
// machine, the gossip wire format, and the shard function, while the
// planning service (internal/serve) owns request forwarding, caching,
// and the degraded-partition response path. The two meet at the Local
// interface.
//
// Everything here is replayable: the wall clock is injected through
// Config.Now, and gossip jitter derives from Config.Seed via a
// counter-based splitmix64 hash — the clusterdet acqlint scope enforces
// that no other clock or randomness source creeps in, so cluster tests
// and multi-node simulations are deterministic.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Local is the co-located planning node the cluster component reports
// into: the statistics-epoch authority whose cache the gossip layer
// keeps coherent. internal/serve.Server implements it.
type Local interface {
	// Epoch returns the node's current statistics epoch.
	Epoch() uint64
	// StatsDigest returns a hash of the distribution the current epoch's
	// plans are built on. Gossip carries it so diverged statistics at an
	// equal epoch are visible in cluster introspection.
	StatsDigest() uint64
	// AdvanceTo installs a higher epoch learned from the peer at from:
	// the local epoch rises to at least epoch and cache entries planned
	// under older epochs are purged. It returns the resulting epoch and
	// the purge count, and must be a no-op when epoch is not newer.
	AdvanceTo(epoch uint64, from string) (newEpoch uint64, purged int)
}

// EpochCeiling is the highest statistics epoch a node adopts or
// reaches: 2^53, the largest integer every JSON reader decodes exactly.
// A gossip digest member claiming more is dropped and counted, and a
// refresh at the ceiling fails instead of wrapping to 0 — a wrapped
// epoch would let the next gossip round make cache entries planned on
// superseded statistics current again. At one refresh a millisecond the
// ceiling is 285,000 years away.
const EpochCeiling uint64 = 1 << 53

// Config parameterizes a Node. Self, Now, Client, and Local are
// required; zero values elsewhere select the documented defaults.
type Config struct {
	// Self is this node's advertised base URL (e.g. "http://10.0.0.7:8077"),
	// the identity peers address it by and the rendezvous-hash input for
	// the shards it owns.
	Self string
	// Peers lists the static seed members' base URLs. Entries equal to
	// Self are ignored, so every node of a cluster can share one list.
	Peers []string
	// GossipInterval is the cadence of the background gossip/heartbeat
	// loop (jittered ±20% per round from Seed). Zero disables the loop;
	// exchanges then happen only via JoinOnce/GossipOnce, which tests use
	// to drive the protocol deterministically.
	GossipInterval time.Duration
	// FailAfter is the number of consecutive failed exchanges after
	// which a peer is declared dead and excluded from shard ownership.
	// Default 3.
	FailAfter int
	// Seed drives the gossip jitter. Default 1.
	Seed uint64
	// Now is the injected wall clock (the only one this package may
	// read; see the clusterdet acqlint scope). Required.
	Now func() time.Time
	// Client performs the HTTP exchanges; it should carry a timeout well
	// below GossipInterval. Required.
	Client *http.Client
	// Local is the co-located planning node. Required.
	Local Local
	// Logf, when set, receives one line per membership transition.
	Logf func(format string, args ...any)
}

// memberState is the lifecycle of one peer in the local view.
type memberState int

const (
	// statePending: configured or gossiped about, but never heard from;
	// excluded from shard ownership and blocks readiness until resolved.
	statePending memberState = iota
	// stateAlive: exchanged gossip recently; a shard-ownership candidate.
	stateAlive
	// stateDead: FailAfter consecutive exchanges failed; excluded from
	// ownership but still probed, so it revives on the next success.
	stateDead
	// stateLeft: announced a graceful leave; neither owned shards nor
	// probed until it rejoins.
	stateLeft
)

func (s memberState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateAlive:
		return "alive"
	case stateDead:
		return "dead"
	default:
		return "left"
	}
}

// member is the local view of one peer.
type member struct {
	url      string
	state    memberState
	epoch    uint64
	digest   uint64
	misses   int       // consecutive failed exchanges
	lastSeen time.Time // last direct exchange (zero if never)
}

// Node is one cluster member: the membership table plus the gossip
// loop. Its ServeHTTP handles the /v1/cluster endpoints.
type Node struct {
	cfg Config

	mu       sync.Mutex
	members  map[string]*member // keyed by base URL; never contains Self
	joined   bool               // at least one exchange (either direction) completed
	maxEpoch uint64             // highest epoch seen anywhere, self included
	round    uint64             // jitter counter for the gossip loop

	rounds   atomic.Int64 // gossip rounds started
	failures atomic.Int64 // failed exchanges
	rejected atomic.Int64 // digest members dropped for an epoch above EpochCeiling

	pokeCh chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New validates the configuration and builds a Node with every static
// peer pending. Call Start to join the cluster.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: config needs a Self URL")
	}
	if cfg.Now == nil || cfg.Client == nil || cfg.Local == nil {
		return nil, fmt.Errorf("cluster: config needs Now, Client, and Local")
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	n := &Node{
		cfg:     cfg,
		members: make(map[string]*member, len(cfg.Peers)),
		pokeCh:  make(chan struct{}, 1),
	}
	for _, p := range cfg.Peers {
		if p == "" || p == cfg.Self {
			continue
		}
		n.members[p] = &member{url: p, state: statePending}
	}
	return n, nil
}

// Start begins cluster participation: with no configured peers the node
// is immediately joined; otherwise the background loop (when
// GossipInterval is set) exchanges with every known peer each round,
// the first successful exchange completing the join.
func (n *Node) Start(ctx context.Context) {
	n.mu.Lock()
	if len(n.members) == 0 {
		n.joined = true
	}
	n.mu.Unlock()
	if n.cfg.GossipInterval <= 0 {
		return
	}
	ctx, n.cancel = context.WithCancel(ctx)
	n.wg.Add(1)
	go n.loop(ctx)
}

// Stop ends the gossip loop and announces a graceful leave to every
// alive peer (best effort, bounded by ctx).
func (n *Node) Stop(ctx context.Context) {
	if n.cancel != nil {
		n.cancel()
	}
	n.wg.Wait()
	n.leaveAll(ctx)
}

// Poke requests an immediate gossip round out of cadence — the planning
// node calls it right after a drift refresh bumps the local epoch, so
// peers purge their stale cache entries without waiting a full
// interval. A no-op when the background loop is not running.
func (n *Node) Poke() {
	select {
	case n.pokeCh <- struct{}{}:
	default:
	}
}

// loop drives the periodic exchanges until ctx ends.
func (n *Node) loop(ctx context.Context) {
	defer n.wg.Done()
	n.GossipOnce(ctx) // the first round doubles as the join attempt
	for {
		t := time.NewTimer(n.nextInterval())
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-n.pokeCh:
			t.Stop()
		case <-t.C:
		}
		n.GossipOnce(ctx)
	}
}

// nextInterval returns the jittered gossip interval: the base spread
// across [0.8, 1.2) deterministically from the seed and round counter,
// so a fleet booted together does not heartbeat in phase yet replays
// identically under a fixed seed.
func (n *Node) nextInterval() time.Duration {
	n.mu.Lock()
	n.round++
	r := n.round
	n.mu.Unlock()
	u := splitmix64(n.cfg.Seed ^ (r * 0x9e3779b97f4a7c15))
	frac := float64(u>>11) / float64(uint64(1)<<53)
	return time.Duration(float64(n.cfg.GossipInterval) * (0.8 + 0.4*frac))
}

// Owner returns the shard owner for a canonical query key under the
// current membership view: the highest-random-weight (rendezvous) hash
// over self plus every alive peer, so each key has exactly one owner in
// any agreed view, and a membership change remaps only the keys the
// departed or arrived node owns. Ties go to self, then to the lowest
// URL. Owner runs on every clustered fast-path hit, so it folds the
// maximum over the member map in place and allocates nothing.
func (n *Node) Owner(key string) (url string, self bool) {
	kh := keyHash(key)
	best := n.cfg.Self
	bestScore := rendezvousScore(best, kh)
	n.mu.Lock()
	for u, m := range n.members {
		if m.state != stateAlive {
			continue
		}
		s := rendezvousScore(u, kh)
		if s > bestScore || (s == bestScore && best != n.cfg.Self && u < best) {
			best, bestScore = u, s
		}
	}
	n.mu.Unlock()
	return best, best == n.cfg.Self
}

// Steady reports whether url is an alive peer that has missed no
// exchange since it was last heard from. The serving layer answers from
// its copies of a peer's answers only while the peer is steady, so a
// peer cut off from this node stops vouching for them at the first
// failed exchange rather than after FailAfter of them.
func (n *Node) Steady(url string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.members[url]
	return ok && m.state == stateAlive && m.misses == 0
}

// OwnerOrder returns every current ownership candidate for a key —
// self plus the alive peers — in descending rendezvous-score order,
// with Owner's tie rule. The head is the Owner; the tail is the
// deterministic failover sequence the serving layer walks when the
// owner is unreachable, so every node that agrees on the membership
// view also agrees on who answers for a key after k failures.
func (n *Node) OwnerOrder(key string) []string {
	kh := keyHash(key)
	n.mu.Lock()
	peers := n.memberURLsLocked(func(m *member) bool { return m.state == stateAlive })
	n.mu.Unlock()
	urls := append([]string{n.cfg.Self}, peers...)
	sort.SliceStable(urls, func(i, j int) bool {
		return rendezvousScore(urls[i], kh) > rendezvousScore(urls[j], kh)
	})
	return urls
}

// memberURLsLocked returns the URLs of members passing keep (nil keeps
// all), sorted. Callers hold n.mu. This is the package's one sanctioned
// range over the member map: the sort erases collection order before any
// caller iterates.
func (n *Node) memberURLsLocked(keep func(*member) bool) []string {
	urls := make([]string, 0, len(n.members))
	//acqlint:ignore maporder collection order is erased by the sort below
	for u, m := range n.members {
		if keep == nil || keep(m) {
			urls = append(urls, u)
		}
	}
	sort.Strings(urls)
	return urls
}

// ReportFailure feeds the failure detector from outside the gossip
// path: the serving layer calls it when a forward to a peer fails, so a
// partitioned shard owner is detected at request rate, not just at
// gossip cadence.
func (n *Node) ReportFailure(url string) {
	n.noteFailure(url)
}

// noteFailure records one failed exchange with a peer and declares it
// dead after FailAfter consecutive misses.
func (n *Node) noteFailure(url string) {
	n.failures.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.members[url]
	if !ok || m.state == stateLeft || m.state == stateDead {
		return
	}
	m.misses++
	if m.misses >= n.cfg.FailAfter {
		m.state = stateDead
		n.logf("cluster: peer %s dead after %d failed exchanges", url, m.misses)
	}
}

// Ready reports whether this node should receive traffic: the join
// completed, no configured or discovered peer is still unresolved
// (pending peers make shard views diverge across nodes), and the local
// statistics epoch has caught up with the gossiped cluster maximum.
func (n *Node) Ready() (bool, string) {
	epoch := n.cfg.Local.Epoch()
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.joined {
		return false, "joining: no gossip exchange completed yet"
	}
	for _, u := range n.memberURLsLocked(nil) {
		if n.members[u].state == statePending {
			return false, fmt.Sprintf("joining: peer %s not yet resolved", u)
		}
	}
	if epoch < n.maxEpoch {
		return false, fmt.Sprintf("stats epoch %d behind cluster maximum %d", epoch, n.maxEpoch)
	}
	return true, ""
}

// Stats is a point-in-time counter snapshot for the /metrics exporter.
type Stats struct {
	Rounds   int64  // gossip rounds started
	Failures int64  // failed exchanges (gossip and reported forwards)
	Alive    int    // peers currently alive (self excluded)
	Known    int    // peers known in any state (self excluded)
	MaxEpoch uint64 // highest statistics epoch seen cluster-wide
	Joined   bool
	// RejectedEpochs counts digest members dropped because their epoch
	// exceeded EpochCeiling.
	RejectedEpochs int64
}

// StatsSnapshot returns the current counters.
func (n *Node) StatsSnapshot() Stats {
	st := Stats{Rounds: n.rounds.Load(), Failures: n.failures.Load(), RejectedEpochs: n.rejected.Load()}
	n.mu.Lock()
	defer n.mu.Unlock()
	st.Known = len(n.members)
	for _, m := range n.members {
		if m.state == stateAlive {
			st.Alive++
		}
	}
	st.MaxEpoch = n.maxEpoch
	st.Joined = n.joined
	return st
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}
