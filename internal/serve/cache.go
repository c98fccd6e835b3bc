package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached planning outcome. The outcome is immutable
// after insertion: the stored plan node is shared by reference across
// requests, which is safe because plan.Node trees are read-only once
// built.
//
// An entry also holds at most one replayable /v1/plan answer (fast.go):
// the request body it answers byte for byte, and prefix, the response
// serialized up to its per-request fields. used is the slot's second
// chance: a replay sets it, and a different body hitting the entry on
// the regular path clears it instead of taking the slot. The slot lives
// and dies with the entry.
type cacheEntry struct {
	key     string
	epoch   uint64
	outcome planOutcome

	body   string
	prefix []byte
	used   bool
}

// lruCache is a fixed-capacity LRU map from cache key to planning
// outcome. Keys embed the statistics epoch (see Server.cacheKey), so a
// stale entry can never be returned for a fresh query; InvalidateBefore
// additionally purges superseded epochs eagerly so their memory is
// reclaimed ahead of LRU pressure. bodies indexes the entries' replay
// slots by request body, so it never holds more than max bodies.
type lruCache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used; values are *cacheEntry
	m      map[string]*list.Element
	bodies map[string]*list.Element
}

func newLRUCache(max int) *lruCache {
	if max < 1 {
		max = 1
	}
	return &lruCache{max: max, ll: list.New(), m: make(map[string]*list.Element, max), bodies: make(map[string]*list.Element)}
}

// get returns the cached outcome for key, marking it most recently used.
func (c *lruCache) get(key string) (planOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return planOutcome{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).outcome, true
}

// add inserts an outcome, evicting the least recently used entry when the
// cache is full. Re-adding an existing key refreshes its value and
// recency and empties its replay slot.
func (c *lruCache) add(key string, epoch uint64, out planOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.outcome = out
		c.clearSlot(e)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, epoch: epoch, outcome: out})
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back())
	}
}

// replay returns the pre-serialized answer prefix for a request body at
// the given epoch, or nil. A replay is a hit on the entry: it becomes
// most recently used and its slot earns its second chance.
func (c *lruCache) replay(body []byte, epoch uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.bodies[string(body)]
	if el == nil || el.Value.(*cacheEntry).epoch != epoch {
		return nil
	}
	e := el.Value.(*cacheEntry)
	c.ll.MoveToFront(el)
	e.used = true
	return e.prefix
}

// offer proposes body's serialized answer for key's replay slot after a
// regular-path hit. An empty slot, or one whose body has not been
// replayed since the last offer, takes it; a used slot keeps its body
// and loses its mark.
func (c *lruCache) offer(key, body string, prefix []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok || el.Value.(*cacheEntry).body == body {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.used {
		e.used = false
		return
	}
	c.clearSlot(e)
	if old := c.bodies[body]; old != nil {
		c.clearSlot(old.Value.(*cacheEntry))
	}
	e.body, e.prefix = body, prefix
	c.bodies[body] = el
}

// clearSlot empties an entry's replay slot and drops its body from the
// index. Callers hold c.mu.
func (c *lruCache) clearSlot(e *cacheEntry) {
	delete(c.bodies, e.body) // no body is ever "", so an empty slot deletes nothing
	e.body, e.prefix, e.used = "", nil, false
}

// remove unlinks an entry and its replay slot. Callers hold c.mu.
func (c *lruCache) remove(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.clearSlot(e)
}

// invalidateBefore removes every entry planned under an epoch older than
// the given one, returning how many were purged.
func (c *lruCache) invalidateBefore(epoch uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	purged := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).epoch < epoch {
			c.remove(el)
			purged++
		}
		el = next
	}
	return purged
}

// lens returns the current entry count and capacity.
func (c *lruCache) lens() (n, max int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.max
}
