package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached planning outcome. The outcome is immutable
// after insertion: the stored plan node is shared by reference across
// requests, which is safe because plan.Node trees are read-only once
// built. On a clustered node the outcome may be a copy of a peer's
// answer; its planner field names that peer.
//
// An entry also holds at most one replayable /v1/plan answer (fast.go).
// used is the slot's second chance: a replay sets it, and a different
// body hitting the entry on the regular path clears it instead of
// taking the slot. The slot lives and dies with the entry.
type cacheEntry struct {
	key     string
	epoch   uint64
	outcome planOutcome

	slot replaySlot
	used bool
}

// replaySlot is one pre-serialized /v1/plan answer: the request body it
// answers byte for byte, and the response serialized around its
// per-request members — prefix runs up to `,"elapsed_ms":`, suffix is
// what follows request_id (`}` or `,"node":…}`). node is the planner the
// answer names ("" standalone) and route the canonical query key, so a
// clustered node can check that the planner still owns the key before
// replaying.
type replaySlot struct {
	body   string
	prefix []byte
	suffix []byte
	node   string
	route  string
}

// lruCache is a fixed-capacity LRU map from cache key to planning
// outcome. Keys embed the statistics epoch (see Server.cacheKey), so a
// stale entry can never be returned for a fresh query; InvalidateBefore
// additionally purges superseded epochs eagerly so their memory is
// reclaimed ahead of LRU pressure. bodies indexes the entries' replay
// slots by request body, so it never holds more than max bodies.
//
// Entries planned here and copies of peers' answers share the capacity
// but keep separate recency lists, and a copy only ever takes room no
// planned entry wants: the planned entries a node holds are exactly
// those it would hold with no copies at all, so copies never cost an
// owner a planner run.
type lruCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // entries planned here; front = most recently used; values are *cacheEntry
	copies *list.List // copies of peers' answers, ordered the same way
	m      map[string]*list.Element
	bodies map[string]*list.Element
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), copies: list.New(), m: make(map[string]*list.Element, max), bodies: make(map[string]*list.Element)}
}

// listOf is the recency list an entry lives on. Callers hold c.mu.
func (c *lruCache) listOf(e *cacheEntry) *list.List {
	if e.outcome.planner != "" {
		return c.copies
	}
	return c.ll
}

// get returns the cached outcome for key, marking it most recently used.
func (c *lruCache) get(key string) (planOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return planOutcome{}, false
	}
	e := el.Value.(*cacheEntry)
	c.listOf(e).MoveToFront(el)
	return e.outcome, true
}

// add inserts an outcome, evicting when the cache is full: the least
// recently used copy if there is one, else the least recently used
// planned entry. Re-adding an existing key refreshes its value and
// recency and empties its replay slot. A copy (out.planner set) is
// dropped instead when keeping it would cost a planned entry: the key
// already holds one, or the cache is full of them.
func (c *lruCache) add(key string, epoch uint64, out planOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	isCopy := out.planner != ""
	if el, ok := c.m[key]; ok {
		if isCopy && el.Value.(*cacheEntry).outcome.planner == "" {
			return
		}
		c.remove(el)
	}
	if isCopy && c.ll.Len() >= c.max {
		return
	}
	l := c.ll
	if isCopy {
		l = c.copies
	}
	c.m[key] = l.PushFront(&cacheEntry{key: key, epoch: epoch, outcome: out})
	for c.ll.Len()+c.copies.Len() > c.max {
		if back := c.copies.Back(); back != nil {
			c.remove(back)
		} else {
			c.remove(c.ll.Back())
		}
	}
}

// replay returns the replay slot for a request body at the given epoch.
// A replay is a hit on the entry: it becomes most recently used and its
// slot earns its second chance.
func (c *lruCache) replay(body []byte, epoch uint64) (replaySlot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.bodies[string(body)]
	if el == nil || el.Value.(*cacheEntry).epoch != epoch {
		return replaySlot{}, false
	}
	e := el.Value.(*cacheEntry)
	c.listOf(e).MoveToFront(el)
	e.used = true
	return e.slot, true
}

// offer proposes a serialized answer for key's replay slot after a
// regular-path hit. An empty slot, or one whose body has not been
// replayed since the last offer, takes it; a used slot keeps its body
// and loses its mark.
func (c *lruCache) offer(key string, slot replaySlot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok || el.Value.(*cacheEntry).slot.body == slot.body {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.used {
		e.used = false
		return
	}
	c.clearSlot(e)
	if old := c.bodies[slot.body]; old != nil {
		c.clearSlot(old.Value.(*cacheEntry))
	}
	e.slot = slot
	c.bodies[slot.body] = el
}

// clearSlot empties an entry's replay slot and drops its body from the
// index. Callers hold c.mu.
func (c *lruCache) clearSlot(e *cacheEntry) {
	delete(c.bodies, e.slot.body) // no body is ever "", so an empty slot deletes nothing
	e.slot, e.used = replaySlot{}, false
}

// remove unlinks an entry and its replay slot. Callers hold c.mu.
func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.listOf(e).Remove(el)
	delete(c.m, e.key)
	c.clearSlot(e)
}

// invalidateBefore removes every entry planned under an epoch older than
// the given one, returning how many were purged.
func (c *lruCache) invalidateBefore(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	purged := 0
	for _, l := range []*list.List{c.ll, c.copies} {
		for el := l.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*cacheEntry).epoch < epoch {
				c.remove(el)
				purged++
			}
			el = next
		}
	}
	return purged
}

// lens returns the current entry count and capacity.
func (c *lruCache) lens() (n, max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len() + c.copies.Len(), c.max
}
