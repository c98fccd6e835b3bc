package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"acqp/internal/trace"
)

// fakeLocal is a minimal Local: an epoch counter plus a record of
// AdvanceTo calls.
type fakeLocal struct {
	mu       sync.Mutex
	epoch    uint64
	digest   uint64
	advances []string // "epoch<-N from=URL"
}

func (f *fakeLocal) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeLocal) StatsDigest() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.digest
}

func (f *fakeLocal) AdvanceTo(epoch uint64, from string) (uint64, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if epoch > f.epoch {
		f.epoch = epoch
		f.advances = append(f.advances, fmt.Sprintf("epoch<-%d from=%s", epoch, from))
	}
	return f.epoch, 0
}

// testNow is the injected clock: a fixed instant, since nothing in
// these tests depends on elapsed time.
func testNow() time.Time { return time.Unix(1700000000, 0) }

func newTestNode(t *testing.T, self string, peers []string, local *fakeLocal) *Node {
	t.Helper()
	if local == nil {
		local = &fakeLocal{epoch: 1}
	}
	n, err := New(Config{
		Self:   self,
		Peers:  peers,
		Now:    testNow,
		Client: &http.Client{Timeout: time.Second},
		Local:  local,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", self, err)
	}
	return n
}

// markAlive force-resolves peers in a node's view, standing in for a
// completed gossip exchange.
func markAlive(n *Node, urls ...string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.joined = true
	for _, u := range urls {
		m, ok := n.members[u]
		if !ok {
			m = &member{url: u}
			n.members[u] = m
		}
		m.state = stateAlive
		m.misses = 0
	}
}

func TestOwnerAgreesAcrossNodes(t *testing.T) {
	urls := []string{"http://n1:1", "http://n2:2", "http://n3:3"}
	nodes := make([]*Node, len(urls))
	for i, u := range urls {
		nodes[i] = newTestNode(t, u, urls, nil)
		for j, p := range urls {
			if j != i {
				markAlive(nodes[i], p)
			}
		}
	}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("temp:%d:%d;light:!0:50", i, i+10)
		owner0, _ := nodes[0].Owner(key)
		for _, n := range nodes[1:] {
			if got, _ := n.Owner(key); got != owner0 {
				t.Fatalf("key %q: %s says owner %s, %s says %s", key, nodes[0].cfg.Self, owner0, n.cfg.Self, got)
			}
		}
		counts[owner0]++
	}
	// Rendezvous hashing should spread 300 keys roughly evenly; require
	// every node to own a healthy share (expected 100 each).
	for _, u := range urls {
		if counts[u] < 50 {
			t.Errorf("node %s owns only %d/300 keys: %v", u, counts[u], counts)
		}
	}
}

func TestOwnerMinimalDisruption(t *testing.T) {
	urls := []string{"http://n1:1", "http://n2:2", "http://n3:3"}
	full := newTestNode(t, urls[0], urls, nil)
	markAlive(full, urls[1], urls[2])
	before := map[string]string{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("humid:%d:%d", i, i+5)
		before[key], _ = full.Owner(key)
	}
	// Drop n3: every key not owned by n3 must keep its owner.
	reduced := newTestNode(t, urls[0], urls[:2], nil)
	markAlive(reduced, urls[1])
	moved := 0
	for key, prev := range before {
		got, _ := reduced.Owner(key)
		if prev != urls[2] {
			if got != prev {
				t.Errorf("key %q moved %s -> %s though its owner did not leave", key, prev, got)
			}
		} else if got == urls[2] {
			t.Errorf("key %q still owned by departed node", key)
		} else {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("departed node owned no keys; disruption check is vacuous")
	}
}

// TestOwnerIsHeadOfOwnerOrder is the property that lets the serving
// layer check a replay slot with Owner alone: over seeded memberships
// (peers in every state) and seeded keys, Owner(k) is OwnerOrder(k)[0].
func TestOwnerIsHeadOfOwnerOrder(t *testing.T) {
	states := []memberState{statePending, stateAlive, stateDead, stateLeft}
	for trial := uint64(0); trial < 64; trial++ {
		r := splitmix64(trial)
		self := fmt.Sprintf("http://h%d:%d", r%7, 8000+r%13)
		n := newTestNode(t, self, nil, nil)
		for p := uint64(0); p < r%7; p++ {
			u := fmt.Sprintf("http://h%d:%d", splitmix64(r+p)%9, 8000+splitmix64(r^p)%13)
			if u == self {
				continue
			}
			n.members[u] = &member{url: u, state: states[splitmix64(r*31+p)%uint64(len(states))]}
		}
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("temp:%d:%d;light:!0:%d", trial, k, splitmix64(r+uint64(k))%64)
			owner, isSelf := n.Owner(key)
			order := n.OwnerOrder(key)
			if owner != order[0] || isSelf != (owner == self) {
				t.Fatalf("trial %d key %q: Owner = %s (self %v), OwnerOrder = %v", trial, key, owner, isSelf, order)
			}
		}
	}
}

// TestOwnerAllocs gates the per-hit ownership check: Owner folds the
// rendezvous maximum over the member map without building a slice.
func TestOwnerAllocs(t *testing.T) {
	if trace.RaceEnabled {
		t.Skip("race detector instrumentation allocates; ci.sh runs this gate without -race")
	}
	urls := []string{"http://n1:1", "http://n2:2", "http://n3:3"}
	n := newTestNode(t, urls[0], urls, nil)
	markAlive(n, urls[1:]...)
	allocs := testing.AllocsPerRun(200, func() {
		if owner, _ := n.Owner("temp:4:9;light:!0:50"); owner == "" {
			t.Fatal("empty owner")
		}
	})
	if allocs != 0 {
		t.Errorf("Owner allocates %.1f/op, gate is 0", allocs)
	}
}

// TestMergeDropsEpochsAboveCeiling pins that a digest cannot push an
// epoch past EpochCeiling: the offending member is dropped whole (not
// even its URL is learned) and counted, while the ceiling itself is
// still adopted.
func TestMergeDropsEpochsAboveCeiling(t *testing.T) {
	local := &fakeLocal{epoch: 1}
	n := newTestNode(t, "http://n1:1", []string{"http://n2:2"}, local)
	n.merge(wireDigest{
		From: "http://n2:2",
		Members: []wireMember{
			{URL: "http://n2:2", Epoch: 3},
			{URL: "http://n3:3", Epoch: EpochCeiling + 1},
			{URL: "http://n4:4", Epoch: ^uint64(0)},
		},
	})
	if got := local.Epoch(); got != 3 {
		t.Fatalf("local epoch = %d, want 3: epochs above the ceiling must not be adopted", got)
	}
	st := n.StatsSnapshot()
	if st.RejectedEpochs != 2 || st.MaxEpoch != 3 || st.Known != 1 {
		t.Fatalf("snapshot = %+v, want 2 rejected, MaxEpoch 3, only n2 known", st)
	}
	n.merge(wireDigest{From: "http://n2:2", Members: []wireMember{{URL: "http://n2:2", Epoch: EpochCeiling}}})
	if got := local.Epoch(); got != EpochCeiling {
		t.Fatalf("local epoch = %d, want the ceiling %d itself adopted", got, EpochCeiling)
	}
}

func TestMergeAdvancesLocalEpoch(t *testing.T) {
	local := &fakeLocal{epoch: 1}
	n := newTestNode(t, "http://n1:1", []string{"http://n2:2"}, local)
	n.merge(wireDigest{
		From: "http://n2:2",
		Members: []wireMember{
			{URL: "http://n2:2", Epoch: 5, Digest: "00000000000000aa"},
		},
	})
	if got := local.Epoch(); got != 5 {
		t.Fatalf("local epoch = %d after merging epoch-5 digest, want 5", got)
	}
	local.mu.Lock()
	adv := strings.Join(local.advances, ";")
	local.mu.Unlock()
	if !strings.Contains(adv, "epoch<-5 from=http://n2:2") {
		t.Errorf("AdvanceTo not attributed to the gossiping peer: %q", adv)
	}
	st := n.StatsSnapshot()
	if st.MaxEpoch != 5 || st.Alive != 1 || !st.Joined {
		t.Errorf("snapshot after merge = %+v, want MaxEpoch 5, Alive 1, Joined", st)
	}
}

func TestMergeLearnsPeersTransitively(t *testing.T) {
	n := newTestNode(t, "http://n1:1", []string{"http://n2:2"}, nil)
	n.merge(wireDigest{
		From: "http://n2:2",
		Members: []wireMember{
			{URL: "http://n2:2", Epoch: 1},
			{URL: "http://n3:3", Epoch: 1},
		},
	})
	n.mu.Lock()
	m3 := n.members["http://n3:3"]
	n.mu.Unlock()
	if m3 == nil || m3.state != statePending {
		t.Fatalf("gossiped-about peer n3 = %+v, want known and pending until probed", m3)
	}
	if ready, reason := n.Ready(); ready || !strings.Contains(reason, "http://n3:3") {
		t.Errorf("Ready() = %v %q, want not-ready naming the unresolved peer", ready, reason)
	}
}

func TestFailureDetectionAndRevival(t *testing.T) {
	n := newTestNode(t, "http://n1:1", []string{"http://n2:2"}, nil)
	markAlive(n, "http://n2:2")
	for i := 0; i < n.cfg.FailAfter-1; i++ {
		n.ReportFailure("http://n2:2")
		n.mu.Lock()
		st := n.members["http://n2:2"].state
		n.mu.Unlock()
		if st != stateAlive {
			t.Fatalf("peer dead after %d misses, FailAfter is %d", i+1, n.cfg.FailAfter)
		}
	}
	n.ReportFailure("http://n2:2")
	n.mu.Lock()
	st := n.members["http://n2:2"].state
	n.mu.Unlock()
	if st != stateDead {
		t.Fatalf("peer state %v after %d consecutive misses, want dead", st, n.cfg.FailAfter)
	}
	// A dead peer owns nothing.
	for i := 0; i < 50; i++ {
		if owner, self := n.Owner(fmt.Sprintf("key-%d", i)); !self {
			t.Fatalf("dead peer still owns key: %s", owner)
		}
	}
	// Hearing from the peer revives it.
	n.merge(wireDigest{From: "http://n2:2", Members: []wireMember{{URL: "http://n2:2", Epoch: 1}}})
	n.mu.Lock()
	st = n.members["http://n2:2"].state
	misses := n.members["http://n2:2"].misses
	n.mu.Unlock()
	if st != stateAlive || misses != 0 {
		t.Fatalf("revived peer state %v misses %d, want alive with cleared misses", st, misses)
	}
}

// TestSteady pins the copy-serving condition: a peer is steady only
// while alive with no missed exchange since it was last heard from.
func TestSteady(t *testing.T) {
	const peer = "http://n2:2"
	n := newTestNode(t, "http://n1:1", []string{peer}, nil)
	if n.Steady(peer) || n.Steady("http://n1:1") || n.Steady("http://unknown:9") {
		t.Fatal("a pending peer, self or an unknown URL is steady")
	}
	n.merge(wireDigest{From: peer, Members: []wireMember{{URL: peer, Epoch: 1}}})
	if !n.Steady(peer) {
		t.Fatal("peer just heard from is not steady")
	}
	n.ReportFailure(peer) // one miss of FailAfter 3: still alive, no longer steady
	if n.Steady(peer) {
		t.Fatal("peer with a missed exchange is steady")
	}
	n.merge(wireDigest{From: peer, Members: []wireMember{{URL: peer, Epoch: 1}}})
	if !n.Steady(peer) {
		t.Fatal("peer heard from again is not steady")
	}
}

func TestLeaveExcludesAndRejoinRevives(t *testing.T) {
	n := newTestNode(t, "http://n1:1", []string{"http://n2:2"}, nil)
	markAlive(n, "http://n2:2")
	n.markLeft("http://n2:2")
	d := n.digest()
	for _, m := range d.Members {
		if m.URL == "http://n2:2" {
			t.Fatal("left peer still advertised in gossip digest")
		}
	}
	if _, self := n.Owner("some-key"); !self {
		t.Fatal("left peer still owns shards")
	}
	// ReportFailure on a left peer must not resurrect or re-kill it.
	n.ReportFailure("http://n2:2")
	n.mu.Lock()
	st := n.members["http://n2:2"].state
	n.mu.Unlock()
	if st != stateLeft {
		t.Fatalf("left peer state %v after a reported failure, want left", st)
	}
	n.merge(wireDigest{From: "http://n2:2", Members: []wireMember{{URL: "http://n2:2", Epoch: 2}}})
	n.mu.Lock()
	st = n.members["http://n2:2"].state
	n.mu.Unlock()
	if st != stateAlive {
		t.Fatalf("rejoining peer state %v, want alive", st)
	}
}

func TestJitterSeededAndBounded(t *testing.T) {
	mk := func(seed uint64) *Node {
		n := newTestNode(t, "http://n1:1", nil, nil)
		n.cfg.Seed = seed
		n.cfg.GossipInterval = time.Second
		return n
	}
	a, b := mk(7), mk(7)
	for i := 0; i < 32; i++ {
		ia, ib := a.nextInterval(), b.nextInterval()
		if ia != ib {
			t.Fatalf("round %d: same seed produced different intervals %v vs %v", i, ia, ib)
		}
		if ia < 800*time.Millisecond || ia >= 1200*time.Millisecond {
			t.Fatalf("round %d: interval %v outside [0.8s, 1.2s)", i, ia)
		}
	}
	c := mk(8)
	same := 0
	for i := 0; i < 32; i++ {
		if a.nextInterval() == c.nextInterval() {
			same++
		}
	}
	if same == 32 {
		t.Error("different seeds produced identical jitter sequences")
	}
}

// TestHTTPJoinGossipLeave drives two nodes over real HTTP: the join
// exchange resolves both views, epoch propagation works end to end, and
// Stop announces a leave the peer honors.
func TestHTTPJoinGossipLeave(t *testing.T) {
	localA := &fakeLocal{epoch: 1, digest: 0xa}
	localB := &fakeLocal{epoch: 3, digest: 0xb}

	var nodeA, nodeB *Node
	srvA := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nodeA.ServeHTTP(w, r) }))
	defer srvA.Close()
	srvB := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { nodeB.ServeHTTP(w, r) }))
	defer srvB.Close()

	mk := func(self string, peers []string, local *fakeLocal) *Node {
		n, err := New(Config{
			Self:   self,
			Peers:  peers,
			Now:    testNow,
			Client: srvA.Client(),
			Local:  local,
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	nodeA = mk(srvA.URL, []string{srvB.URL}, localA)
	nodeB = mk(srvB.URL, nil, localB) // B has no static peers; it learns of A from the join

	if ok := nodeA.GossipOnce(context.Background()); ok != 1 {
		t.Fatalf("GossipOnce exchanged with %d peers, want 1", ok)
	}
	// Joining B (epoch 3) must have pulled A's local epoch up.
	if got := localA.Epoch(); got != 3 {
		t.Fatalf("A epoch = %d after joining epoch-3 peer, want 3", got)
	}
	if ready, reason := nodeA.Ready(); !ready {
		t.Fatalf("A not ready after successful join: %s", reason)
	}
	if ready, reason := nodeB.Ready(); !ready {
		t.Fatalf("B not ready after receiving join: %s", reason)
	}

	// Introspection from both sides.
	for _, tc := range []struct {
		n    *Node
		peer string
	}{{nodeA, srvB.URL}, {nodeB, srvA.URL}} {
		info := tc.n.Info()
		if len(info.Members) != 2 {
			t.Fatalf("%s reports %d members, want 2: %+v", info.Self, len(info.Members), info)
		}
		found := false
		for _, m := range info.Members {
			if m.URL == tc.peer && m.State == "alive" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s does not list %s alive: %+v", info.Self, tc.peer, info.Members)
		}
	}

	// GET /v1/cluster over the wire.
	resp, err := srvA.Client().Get(srvA.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/cluster: %d", resp.StatusCode)
	}

	// A leaves; B must stop treating it as a member.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	nodeA.Stop(ctx)
	nodeB.mu.Lock()
	st := nodeB.members[srvA.URL].state
	nodeB.mu.Unlock()
	if st != stateLeft {
		t.Fatalf("after A's leave, B sees state %v, want left", st)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty config")
	}
	if _, err := New(Config{Self: "http://x"}); err == nil {
		t.Error("New accepted a config without Now/Client/Local")
	}
	n := newTestNode(t, "http://self:1", []string{"http://self:1", "", "http://p:2"}, nil)
	if len(n.members) != 1 {
		t.Errorf("self and empty peer entries not filtered: %d members", len(n.members))
	}
	if n.cfg.FailAfter != 3 || n.cfg.Seed != 1 {
		t.Errorf("defaults not applied: FailAfter=%d Seed=%d", n.cfg.FailAfter, n.cfg.Seed)
	}
}
