package server

import (
	"container/list"
	"sync"

	"mdbgp"
)

// resultCache is a content-addressed LRU over completed partition results.
// Keys are graph-hash + canonical-options fingerprints (see (*Server).cacheKey),
// so any byte stream that canonicalizes to the same graph and the same
// solver configuration — reordered edge lists, duplicate edges, explicit
// defaults — addresses the same entry. Cached *mdbgp.Result values are
// shared across jobs and must be treated as immutable.
type resultCache struct {
	mu       sync.Mutex
	capacity int        // max entries; <= 0 disables the cache
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	bytes    int64 // approximate retained size (payload + key + bookkeeping)
	clamps   int64 // times the gauge went negative and was clamped (accounting bug)
}

type cacheEntry struct {
	key   string
	res   *mdbgp.Result
	bytes int64
}

// entryOverhead approximates the per-entry bookkeeping retained alongside a
// payload: the entry struct, its list element, and the map bucket share.
// The key string's bytes are counted separately — cache keys here are
// engine-version + graph-hash + fingerprint strings of ~140 bytes, which at
// small payloads (tiny graphs, delta metadata) rivals the payload itself, so
// ignoring them made the mdbgpd_*cache_bytes gauges drift far below the real
// footprint.
const entryOverhead = 128

// clampBytes resets a negative byte gauge to zero, counting the event: the
// gauge is a sum of per-entry deltas, so a negative value means an
// accounting bug (an entry charged less than it was later credited), and a
// silently negative gauge would render as a huge unsigned value in dashboards
// and hide the bug. Callers hold mu.
func clampBytes(bytes, clamps *int64) {
	if *bytes < 0 {
		*bytes = 0
		*clamps++
	}
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key, promoting it to most recent.
func (c *resultCache) get(key string) (*mdbgp.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put inserts or refreshes key and returns how many entries were evicted.
func (c *resultCache) put(key string, res *mdbgp.Result) int {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		nb := resultEntryBytes(key, res)
		c.bytes += nb - e.bytes
		clampBytes(&c.bytes, &c.clamps)
		e.res, e.bytes = res, nb
		return 0
	}
	e := &cacheEntry{key: key, res: res, bytes: resultEntryBytes(key, res)}
	c.items[key] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.bytes -= old.bytes
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	return evicted
}

func (c *resultCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// clampCount reports how often the byte gauge had to be clamped at zero.
func (c *resultCache) clampCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamps
}

// resultEntryBytes is the full accounted size of one cache entry: the result
// payload plus the key string and the per-entry bookkeeping.
func resultEntryBytes(key string, res *mdbgp.Result) int64 {
	return int64(len(key)) + entryOverhead + resultBytes(res)
}

// resultBytes approximates the retained size of a result payload: the
// assignment dominates (4 bytes per vertex), plus the fixed-size quality
// fields.
func resultBytes(res *mdbgp.Result) int64 {
	b := int64(64)
	if res.Assignment != nil {
		b += int64(len(res.Assignment.Parts)) * 4
	}
	b += int64(len(res.Imbalances)) * 8
	return b
}

// graphCache is a content-addressed LRU over solved base graphs, keyed by
// canonical CSR hash. Delta submissions (?base=...) materialize their target
// graph by applying the delta to an entry here; evicting an entry therefore
// degrades the affected deltas to "resubmit the full graph", which is why
// the cache is bounded separately from (and typically smaller than) the
// result cache. Stored graphs are immutable and shared across requests.
type graphCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element
	bytes    int64
	clamps   int64
}

type graphEntry struct {
	key   string
	g     *mdbgp.Graph
	bytes int64
}

func newGraphCache(capacity int) *graphCache {
	return &graphCache{capacity: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// getOrPut returns the canonical retained instance of the graph under hash,
// inserting g when the hash is new, plus how many entries were evicted. Every
// same-content submission is handed back the SAME *mdbgp.Graph — beyond
// deduplicating memory, pointer identity is what the prep cache's artifacts
// are validated against, so canonicalization is what lets a repeat submission
// reuse a prepared hierarchy at all. With
// the cache disabled each submission keeps its own instance and prep reuse
// degrades to per-instance.
func (c *graphCache) getOrPut(hash string, g *mdbgp.Graph) (*mdbgp.Graph, int) {
	if c.capacity <= 0 {
		return g, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*graphEntry).g, 0
	}
	e := &graphEntry{key: hash, g: g, bytes: graphEntryBytes(hash, g)}
	c.items[hash] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*graphEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.bytes -= old.bytes
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	return g, evicted
}

// get returns the cached graph for the hash, promoting it to most recent.
func (c *graphCache) get(hash string) (*mdbgp.Graph, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*graphEntry).g, true
}

// put inserts or refreshes the graph under its hash and returns how many
// entries were evicted.
func (c *graphCache) put(hash string, g *mdbgp.Graph) int {
	if c.capacity <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		// Same hash means the same canonical CSR; just refresh recency.
		c.ll.MoveToFront(el)
		return 0
	}
	e := &graphEntry{key: hash, g: g, bytes: graphEntryBytes(hash, g)}
	c.items[hash] = c.ll.PushFront(e)
	c.bytes += e.bytes
	evicted := 0
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		old := back.Value.(*graphEntry)
		c.ll.Remove(back)
		delete(c.items, old.key)
		c.bytes -= old.bytes
		evicted++
	}
	clampBytes(&c.bytes, &c.clamps)
	return evicted
}

func (c *graphCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes
}

// clampCount reports how often the byte gauge had to be clamped at zero.
func (c *graphCache) clampCount() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clamps
}

// graphEntryBytes is the full accounted size of one graph-cache entry: the
// CSR payload plus the hash key and the per-entry bookkeeping.
func graphEntryBytes(hash string, g *mdbgp.Graph) int64 {
	return int64(len(hash)) + entryOverhead + graphBytes(g)
}

// graphBytes approximates a CSR graph's retained size: 8 bytes per offset,
// 4 per directed adjacency entry.
func graphBytes(g *mdbgp.Graph) int64 {
	return 8*int64(g.N()+1) + 4*g.DirectedSize() + 64
}
