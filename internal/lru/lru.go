// Package lru is the serving layer's one bounded cache: a mutex-guarded,
// string-keyed LRU over immutable values, bounded either by entry count or
// by a byte budget. The daemon's result cache, base-graph cache and
// coarsening-hierarchy (prep) cache are all instances of it, so their byte
// gauges are charged the same way and are directly comparable.
//
// The cache keeps only what it alone can know — entries, retained bytes,
// evictions and accounting clamps. Hit and miss counts are the caller's: what
// counts as a hit (a result served from memory or disk, a hierarchy built for
// this exact graph instance) is decided there.
package lru

import (
	"container/list"
	"sync"
)

// EntryOverhead approximates the per-entry bookkeeping retained alongside a
// payload: the entry struct, its list element and the map bucket share. The
// key's bytes are charged separately — the daemon's keys are engine-version +
// graph-hash + fingerprint strings of ~140 bytes, which at small payloads
// (tiny graphs, delta metadata) rivals the payload itself.
const EntryOverhead = 128

// Cache is a thread-safe LRU. Values are shared by reference with every
// caller that gets them, so they must be immutable once cached.
type Cache[V any] struct {
	mu      sync.Mutex
	limit   int64 // max entries, or max bytes when byBytes; <= 0 disables
	byBytes bool
	size    func(V) int64 // payload bytes; must be stable for a value's lifetime
	ll      *list.List    // front = most recently used
	items   map[string]*list.Element

	bytes     int64 // key + EntryOverhead + payload, summed over entries
	evictions int64
	clamps    int64 // times the byte gauge went negative and was reset to 0
}

type entry[V any] struct {
	key   string
	val   V
	bytes int64
}

// NewEntries returns a cache holding at most n entries; n <= 0 disables it.
// size reports a value's payload bytes for the byte gauge.
func NewEntries[V any](n int, size func(V) int64) *Cache[V] {
	return newCache(int64(n), false, size)
}

// NewBytes returns a cache holding at most budget bytes of entries; budget
// <= 0 disables it. Use it when values range over orders of magnitude in
// size, where an entry count would make the bound meaningless.
func NewBytes[V any](budget int64, size func(V) int64) *Cache[V] {
	return newCache(budget, true, size)
}

func newCache[V any](limit int64, byBytes bool, size func(V) int64) *Cache[V] {
	return &Cache[V]{limit: limit, byBytes: byBytes, size: size, ll: list.New(), items: make(map[string]*list.Element)}
}

// Enabled reports whether the cache stores anything at all.
func (c *Cache[V]) Enabled() bool { return c.limit > 0 }

// Get returns the value cached under key, promoting it to most recently used.
// valid, when non-nil, re-checks the entry against the caller's current
// world; an entry that fails is removed and reported as a miss — a stale
// entry is not a useless hit, it is a miss that was occupying the bound.
// valid runs under the cache's lock, so it must be a pure check that does
// not call back into the cache.
func (c *Cache[V]) Get(key string, valid func(V) bool) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[V])
	if valid != nil && !valid(e.val) {
		c.remove(el)
		return zero, false
	}
	c.ll.MoveToFront(el)
	return e.val, true
}

// Put inserts or replaces the value under key, then evicts least recently
// used entries until the bound holds.
func (c *Cache[V]) Put(key string, v V) {
	if !c.Enabled() {
		return
	}
	nb := c.charge(key, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, v, nb)
}

// GetOrPut returns the value already cached under key, promoting it, or
// caches v and returns it. The daemon canonicalizes graph instances with it:
// every same-content submission is handed back the same retained graph. A
// disabled cache returns v itself.
func (c *Cache[V]) GetOrPut(key string, v V) V {
	if !c.Enabled() {
		return v
	}
	nb := c.charge(key, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).val
	}
	c.put(key, v, nb)
	return v
}

// charge is the accounted size of one entry.
func (c *Cache[V]) charge(key string, v V) int64 {
	return int64(len(key)) + EntryOverhead + c.size(v)
}

// put is Put with mu held; nb is the entry's charge.
func (c *Cache[V]) put(key string, v V, nb int64) {
	el, ok := c.items[key]
	switch {
	case c.byBytes && nb > c.limit:
		// Caching it would evict everything else and still leave the gauge
		// over budget, so the caller keeps v for this one use. A replaced
		// entry goes anyway: the caller just said it is stale.
		if ok {
			c.remove(el)
		}
	case ok:
		e := el.Value.(*entry[V])
		c.bytes += nb
		c.credit(e.bytes)
		e.val, e.bytes = v, nb
		c.ll.MoveToFront(el)
	default:
		c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: v, bytes: nb})
		c.bytes += nb
	}
	// The newest entry is at the front and fits the bound on its own, so
	// eviction stops before reaching it.
	for c.ll.Len() > 1 && c.over() {
		c.remove(c.ll.Back())
		c.evictions++
	}
}

func (c *Cache[V]) over() bool {
	if c.byBytes {
		return c.bytes > c.limit
	}
	return int64(c.ll.Len()) > c.limit
}

// remove unlinks one entry and credits its bytes.
func (c *Cache[V]) remove(el *list.Element) {
	e := c.ll.Remove(el).(*entry[V])
	delete(c.items, e.key)
	c.credit(e.bytes)
}

// credit takes n bytes off the gauge. The gauge is a sum of per-entry
// charges, so going negative means an entry was credited more than it was
// charged — an accounting bug worth a counter, not a gauge that renders as a
// huge unsigned value in dashboards.
func (c *Cache[V]) credit(n int64) {
	c.bytes -= n
	if c.bytes < 0 {
		c.bytes = 0
		c.clamps++
	}
}

// Stats is a consistent snapshot of the cache's gauges and counters.
type Stats struct {
	Entries   int
	Bytes     int64
	Evictions int64
	Clamps    int64
}

// Stats snapshots everything under one lock acquisition, so a metrics scrape
// renders an internally consistent view.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Entries: c.ll.Len(), Bytes: c.bytes, Evictions: c.evictions, Clamps: c.clamps}
}
