package serve

import (
	"fmt"
	"time"

	"acqp/internal/cluster"

	"acqp/internal/stats"
	"acqp/internal/table"
)

// errEpochCeiling refuses a refresh at the highest epoch a node may
// reach.
var errEpochCeiling = fmt.Errorf("serve: statistics epoch is at its ceiling %d; refusing to refresh past it", cluster.EpochCeiling)

// Refresh compares the sliding window's distribution with the one the
// current epoch's plans were built on and, when the drift exceeds the
// configured threshold (or force is set), installs the window as the new
// epoch and purges cache entries planned under older epochs.
//
// Drift is the maximum over attributes of the total-variation distance
// between the two marginal histograms — the same "statistics the plan
// was built with no longer match the stream" trigger as Section 7's
// stream extension, applied service-wide instead of per continuous
// query.
//
// A refresh that would carry the epoch past cluster.EpochCeiling fails
// with errEpochCeiling and changes nothing: the epoch never wraps, so no
// entry planned on superseded statistics can become current again.
func (s *Server) Refresh(force bool) (refreshed bool, drift float64, epoch uint64, purged int, err error) {
	s.wmu.Lock()
	n := s.window.Len()
	var fresh *stats.Empirical
	var freshTbl *table.Table
	if n > 0 {
		freshTbl = s.window.Materialize()
		fresh = stats.NewEmpirical(freshTbl)
	}
	s.wmu.Unlock()
	if fresh == nil {
		return false, 0, s.Epoch(), 0, nil
	}

	cur, curEpoch := s.snapshot()
	drift = maxTotalVariation(cur, fresh)
	if !force && drift <= s.cfg.DriftThreshold {
		return false, drift, curEpoch, 0, nil
	}

	s.mu.Lock()
	if s.epoch != curEpoch {
		// A concurrent refresh already advanced the epoch; measuring
		// drift against a superseded distribution proves nothing, so
		// leave the newer epoch in place.
		epoch = s.epoch
		s.mu.Unlock()
		return false, drift, epoch, 0, nil
	}
	if s.epoch >= cluster.EpochCeiling {
		s.mu.Unlock()
		return false, drift, curEpoch, 0, errEpochCeiling
	}
	s.dist = fresh
	s.histTbl = freshTbl
	s.epoch++
	epoch = s.epoch
	s.mu.Unlock()

	purged = s.cache.invalidateBefore(epoch)
	count(&s.metrics.invalidated, int64(purged))
	count(&s.metrics.refreshes, 1)
	// Fitted models were trained on the superseded table; refit the
	// configured default eagerly so post-refresh requests find it warm
	// (other backends lazily refit on first request — modelSnapshot drops
	// the stale map when it sees the new epoch).
	s.refitDefault()
	if s.cluster != nil {
		// Push the new epoch to peers immediately instead of waiting out
		// the gossip interval, so their stale cache entries purge now.
		s.cluster.Poke()
	}
	return true, drift, epoch, purged, nil
}

// maxTotalVariation returns max_i TV(P_i, Q_i) over the attributes'
// marginal histograms: 0 for identical distributions, 1 for disjoint
// support. Each call derives fresh root contexts, which are private to
// this goroutine (stats.Cond is not goroutine-safe, Dist.Root is).
func maxTotalVariation(a, b stats.Dist) float64 {
	s := a.Schema()
	ra, rb := a.Root(), b.Root()
	maxTV := 0.0
	for i := 0; i < s.NumAttrs(); i++ {
		ha, hb := ra.Hist(i), rb.Hist(i)
		tv := 0.0
		for v := range ha {
			d := ha[v] - hb[v]
			if d < 0 {
				d = -d
			}
			tv += d
		}
		tv /= 2
		if tv > maxTV {
			maxTV = tv
		}
	}
	return maxTV
}

// refresher periodically runs Refresh until Shutdown, or until the
// epoch reaches its ceiling.
func (s *Server) refresher() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.RefreshInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, _, _, _, err := s.Refresh(false); err != nil {
				// The epoch is at its ceiling and never comes down:
				// every later drift check would be refused the same way.
				return
			}
		case <-s.baseCtx.Done():
			return
		}
	}
}
