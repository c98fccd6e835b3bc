package opt

import (
	"math"
	"sync"
	"sync/atomic"

	"acqp/internal/plan"
	"acqp/internal/query"
	"acqp/internal/stats"
	"acqp/internal/trace"
)

// This file holds the concurrency substrate shared by the parallel
// planners: an atomic monotonically-decreasing cost bound, a sharded
// subproblem memo, a bounded goroutine gate, and the safe-publication
// helpers that are the only places internal/opt may derive child
// conditioning contexts (enforced by acqlint's condshare analyzer).

// minBound is an atomically updatable best-so-far cost shared by the
// candidate evaluations of one subproblem. Costs are non-negative (or
// +Inf), so the CAS loop over raw float64 bits is well-defined. The bound
// only ever decreases; pruning against it is sound because every stored
// value is either the caller's bound or an achievable plan cost.
type minBound struct {
	bits atomic.Uint64
}

func newMinBound(v float64) *minBound {
	b := &minBound{}
	b.bits.Store(math.Float64bits(v))
	return b
}

func (b *minBound) get() float64 { return math.Float64frombits(b.bits.Load()) }

// lower installs v if it is strictly below the current bound.
func (b *minBound) lower(v float64) {
	for {
		old := b.bits.Load()
		if !(v < math.Float64frombits(old)) {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// prefixBounds lets the per-attribute candidate evaluations of one leaf
// prune against each other without changing what the fixed-order replay
// sees: entry a is an upper bound on the best split cost the replay holds
// when it reaches attribute a, because only attributes before a lower it
// and every cost they publish is a complete split's cost. Run inline in
// attribute order the bound is exact; run concurrently it is whatever
// earlier attributes have finished so far, never lower.
type prefixBounds []minBound

func newPrefixBounds(attrs int) prefixBounds {
	b := make(prefixBounds, attrs)
	for i := range b {
		b[i].bits.Store(math.Float64bits(math.Inf(1)))
	}
	return b
}

// before returns the bound for attribute attr.
func (b prefixBounds) before(attr int) float64 { return b[attr].get() }

// publish records a complete split cost of attribute attr.
func (b prefixBounds) publish(attr int, cost float64) {
	for i := attr + 1; i < len(b); i++ {
		b[i].lower(cost)
	}
}

// memoShards is the fixed shard count of boxMemo. Box keys hash uniformly
// (they pack range endpoints), so 64 shards keep lock contention negligible
// at any plausible Parallelism.
const memoShards = 64

type exhaustiveMemoEntry struct {
	cost float64
	node *plan.Node
}

// boxMemo is the concurrency-safe subproblem memo of the exhaustive
// search, sharded by a hash of the box key. Each shard pairs the exact
// results (the "only cache optimal results" rule of Figure 5) with the
// pruned lower bounds recorded when a subproblem was searched under a
// bound no plan could beat.
type boxMemo struct {
	shards [memoShards]memoShard
}

type memoShard struct {
	mu sync.Mutex
	// solved holds exact optima; entries are deterministic values, so a
	// racing duplicate store rewrites an identical result.
	solved map[string]exhaustiveMemoEntry
	// pruned[key] is the largest bound under which the subproblem was
	// searched without finding a plan: its true optimum is > that value,
	// so re-visits with a bound at or below it prune instantly.
	pruned map[string]float64
}

func newBoxMemo() *boxMemo {
	m := &boxMemo{}
	for i := range m.shards {
		m.shards[i].solved = make(map[string]exhaustiveMemoEntry)
		m.shards[i].pruned = make(map[string]float64)
	}
	return m
}

// shard picks the shard for a key by FNV-1a.
func (m *boxMemo) shard(key string) *memoShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &m.shards[h%memoShards]
}

// lookup returns the exact entry if one is cached, else whether the
// recorded pruned lower bound already proves the optimum exceeds bound.
func (m *boxMemo) lookup(key string, bound float64) (entry exhaustiveMemoEntry, exact, prunes bool) {
	sh := m.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.solved[key]; ok {
		return e, true, false
	}
	if lb, ok := sh.pruned[key]; ok && bound <= lb {
		return exhaustiveMemoEntry{}, false, true
	}
	return exhaustiveMemoEntry{}, false, false
}

func (m *boxMemo) store(key string, e exhaustiveMemoEntry) {
	sh := m.shard(key)
	sh.mu.Lock()
	sh.solved[key] = e
	sh.mu.Unlock()
}

// recordPruned remembers "optimum > bound", keeping the largest such bound.
func (m *boxMemo) recordPruned(key string, bound float64) {
	sh := m.shard(key)
	sh.mu.Lock()
	if lb, ok := sh.pruned[key]; !ok || bound > lb {
		sh.pruned[key] = bound
	}
	sh.mu.Unlock()
}

// gate bounds the extra goroutines a parallel search may use. A nil gate
// (Parallelism <= 1) runs everything inline; otherwise run hands fn to a
// new goroutine when a token is free and falls back to running it inline,
// so progress never blocks on pool capacity and recursion cannot deadlock.
// The optional span records the pool's spawn-vs-inline placement
// decisions (trace.Spawned / trace.Inlined).
type gate struct {
	tokens chan struct{}
	span   *trace.Span
}

func newGate(parallelism int, span *trace.Span) *gate {
	if parallelism <= 1 {
		return nil
	}
	return &gate{tokens: make(chan struct{}, parallelism-1), span: span}
}

// run dispatches fn to a pooled goroutine or inline.
//
//acqlint:pure completion order never reaches output: workers fold into the sharded memo and the plan chosen is the cost-minimal one regardless of arrival order (covered by TestExhaustiveParallelDeterminism / TestGreedyParallelDeterminism)
func (g *gate) run(wg *sync.WaitGroup, fn func()) {
	if g != nil {
		select {
		case g.tokens <- struct{}{}:
			g.span.Count(trace.Spawned, 1)
			wg.Add(1) //acqlint:ignore errdrop sync.WaitGroup.Add returns nothing; name-collision with error-returning Add methods
			go func() {
				defer wg.Done()
				defer func() { <-g.tokens }()
				fn()
			}()
			return
		default:
			g.span.Count(trace.Inlined, 1)
		}
	}
	fn()
}

// errBox collects the first error of a fan-out; later evaluations consult
// hasErr to abort early.
type errBox struct {
	mu  sync.Mutex
	err error
	set atomic.Bool
}

func (b *errBox) record(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	if b.err == nil {
		b.err = err
		b.set.Store(true)
	}
	b.mu.Unlock()
}

func (b *errBox) hasErr() bool { return b.set.Load() }

func (b *errBox) get() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.err
}

// childCond derives the child conditioning context for one branch of a
// conditioning split. Together with restrictLazy it is the only place
// internal/opt may call Cond.RestrictRange/RestrictPred (acqlint's
// condshare analyzer enforces this): derivation reads the shared parent
// and returns a fresh context, so concurrent searches never mutate a Cond
// another goroutine is reading. Conditioning on a predicate holding, for
// sequential-plan construction, happens behind stats.CondChain.
func childCond(c stats.Cond, attr int, r query.Range) stats.Cond {
	return c.RestrictRange(attr, r)
}
