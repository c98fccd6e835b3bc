package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The gossip protocol is anti-entropy push-pull: each round a node
// POSTs its digest — self plus every non-left member it knows, with the
// highest statistics epoch it has seen for each — to every known peer,
// and merges the digest the peer returns. Merging takes the per-member
// epoch maximum, so one node's drift refresh reaches every peer within
// a round (or immediately, via Poke), and member URLs spread
// transitively, so a node configured with one seed peer still discovers
// the whole cluster.

// wireMember is one member entry in a gossip digest.
type wireMember struct {
	URL    string `json:"url"`
	Epoch  uint64 `json:"epoch"`
	Digest string `json:"digest"` // stats digest, hex
}

// wireDigest is the gossip exchange body — sent as the request and
// returned as the response, making every exchange bidirectional.
type wireDigest struct {
	From    string       `json:"from"`
	Members []wireMember `json:"members"`
}

// digest snapshots this node's view: self first, then every non-left
// member in URL order. Local values are read before taking the lock
// (Node methods never call Local while holding mu).
func (n *Node) digest() wireDigest {
	epoch := n.cfg.Local.Epoch()
	dg := n.cfg.Local.StatsDigest()
	d := wireDigest{From: n.cfg.Self}
	d.Members = append(d.Members, wireMember{
		URL:    n.cfg.Self,
		Epoch:  epoch,
		Digest: fmt.Sprintf("%016x", dg),
	})
	n.mu.Lock()
	if epoch > n.maxEpoch {
		n.maxEpoch = epoch
	}
	for _, u := range n.memberURLsLocked(func(m *member) bool { return m.state != stateLeft }) {
		m := n.members[u]
		d.Members = append(d.Members, wireMember{
			URL:    u,
			Epoch:  m.epoch,
			Digest: fmt.Sprintf("%016x", m.digest),
		})
	}
	n.mu.Unlock()
	return d
}

// GossipOnce runs one full round: exchange with every known, non-left
// peer in URL order (pending peers through the join endpoint, the rest
// through gossip). It returns the number of successful exchanges.
// Tests with GossipInterval zero call it directly to step the protocol
// deterministically.
func (n *Node) GossipOnce(ctx context.Context) int {
	n.rounds.Add(1)
	d := n.digest()
	type target struct {
		url     string
		pending bool
	}
	n.mu.Lock()
	targets := make([]target, 0, len(n.members))
	for _, u := range n.memberURLsLocked(func(m *member) bool { return m.state != stateLeft }) {
		targets = append(targets, target{url: u, pending: n.members[u].state == statePending})
	}
	n.mu.Unlock()
	ok := 0
	for _, t := range targets {
		path := "/v1/cluster/gossip"
		if t.pending {
			path = "/v1/cluster/join"
		}
		if n.exchange(ctx, t.url, path, d) {
			ok++
		}
	}
	return ok
}

// exchange POSTs the digest to one peer and merges the reply. A failed
// exchange feeds the failure detector.
func (n *Node) exchange(ctx context.Context, peer, path string, d wireDigest) bool {
	body, err := json.Marshal(d)
	if err != nil {
		n.logf("cluster: marshal digest: %v", err)
		return false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		n.noteFailure(peer)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.cfg.Client.Do(req)
	if err != nil {
		n.noteFailure(peer)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		n.noteFailure(peer)
		return false
	}
	var reply wireDigest
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxDigestBytes)).Decode(&reply); err != nil {
		n.noteFailure(peer)
		return false
	}
	n.merge(reply)
	return true
}

// merge folds a peer's digest into the local view: the sender is
// directly heard from (alive, misses cleared), every listed URL is
// learned (unknown ones enter pending until probed directly), each
// member's epoch ratchets to the maximum seen — a member claiming an
// epoch above EpochCeiling is dropped whole and counted, since no honest
// node gets there — and if the cluster
// maximum now exceeds the local statistics epoch the co-located node is
// advanced — purging its stale cache entries — after the lock is
// released.
func (n *Node) merge(d wireDigest) {
	now := n.cfg.Now()
	selfEpoch := n.cfg.Local.Epoch()
	var advanceTo uint64
	n.mu.Lock()
	n.joined = true
	if d.From != "" && d.From != n.cfg.Self {
		m, ok := n.members[d.From]
		if !ok {
			m = &member{url: d.From}
			n.members[d.From] = m
			n.logf("cluster: peer %s joined", d.From)
		} else if m.state != stateAlive {
			n.logf("cluster: peer %s %s -> alive", d.From, m.state)
		}
		m.state = stateAlive
		m.misses = 0
		m.lastSeen = now
	}
	for _, wm := range d.Members {
		if wm.URL == "" {
			continue
		}
		if wm.Epoch > EpochCeiling {
			n.rejected.Add(1)
			continue
		}
		if wm.Epoch > n.maxEpoch {
			n.maxEpoch = wm.Epoch
		}
		if wm.URL == n.cfg.Self {
			continue
		}
		m, ok := n.members[wm.URL]
		if !ok {
			m = &member{url: wm.URL, state: statePending}
			n.members[wm.URL] = m
			n.logf("cluster: learned of peer %s via %s", wm.URL, d.From)
		}
		if wm.Epoch > m.epoch {
			m.epoch = wm.Epoch
			if v, err := strconv.ParseUint(wm.Digest, 16, 64); err == nil {
				m.digest = v
			}
		}
	}
	if selfEpoch > n.maxEpoch {
		n.maxEpoch = selfEpoch
	}
	if n.maxEpoch > selfEpoch {
		advanceTo = n.maxEpoch
	}
	n.mu.Unlock()
	if advanceTo > 0 {
		n.cfg.Local.AdvanceTo(advanceTo, d.From)
	}
}

// leaveAll announces a graceful leave to every alive peer, best effort.
func (n *Node) leaveAll(ctx context.Context) {
	n.mu.Lock()
	urls := n.memberURLsLocked(func(m *member) bool { return m.state == stateAlive })
	n.mu.Unlock()
	body, err := json.Marshal(leaveRequest{From: n.cfg.Self})
	if err != nil {
		return
	}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u+"/v1/cluster/leave", bytes.NewReader(body))
		if err != nil {
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := n.cfg.Client.Do(req)
		if err != nil {
			n.logf("cluster: leave announcement to %s failed: %v", u, err)
			continue
		}
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		resp.Body.Close()
	}
}
