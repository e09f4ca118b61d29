package server

import (
	"fmt"
	"testing"

	"mdbgp"
	"mdbgp/internal/lru"
)

// The LRU mechanics are internal/lru's and tested there; these tests pin the
// result cache as the server configures it from Config.CacheEntries and
// charges it with resultBytes.

func fakeResult(n int) *mdbgp.Result {
	return &mdbgp.Result{
		Assignment:   &mdbgp.Assignment{Parts: make([]int32, n), K: 2},
		EdgeLocality: 0.5,
		Imbalances:   []float64{0.01},
	}
}

// resultCacheOf returns the result cache a server builds for capacity n.
func resultCacheOf(n int) *lru.Cache[*mdbgp.Result] {
	return newServer(Config{CacheEntries: n}).cache
}

// resultEntryBytes is the accounted size of one result-cache entry.
func resultEntryBytes(key string, res *mdbgp.Result) int64 {
	return int64(len(key)) + lru.EntryOverhead + resultBytes(res)
}

func TestCacheLRUEviction(t *testing.T) {
	c := resultCacheOf(2)
	c.Put("a", fakeResult(10))
	c.Put("b", fakeResult(10))
	c.Put("c", fakeResult(10))
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("third insert evicted %d entries, want 1", ev)
	}
	if _, ok := c.Get("a", nil); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k, nil); !ok {
			t.Fatalf("entry %q missing", k)
		}
	}
}

func TestCacheGetPromotes(t *testing.T) {
	c := resultCacheOf(2)
	c.Put("a", fakeResult(10))
	c.Put("b", fakeResult(10))
	c.Get("a", nil) // a is now most recent; b must be the eviction victim
	c.Put("c", fakeResult(10))
	if _, ok := c.Get("a", nil); !ok {
		t.Fatal("recently used entry was evicted")
	}
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCachePutRefreshes(t *testing.T) {
	c := resultCacheOf(4)
	c.Put("a", fakeResult(10))
	bigger := fakeResult(100)
	c.Put("a", bigger)
	got, ok := c.Get("a", nil)
	if !ok || got != bigger {
		t.Fatal("refresh did not replace the value")
	}
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats after refresh %+v, want 1 entry and no eviction", st)
	}
	if want := resultEntryBytes("a", bigger); st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := resultCacheOf(-1)
	c.Put("a", fakeResult(10))
	if _, ok := c.Get("a", nil); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("disabled cache reports %+v", st)
	}
}

func TestCacheBytesAccounting(t *testing.T) {
	c := resultCacheOf(8)
	var want int64
	for i := 0; i < 5; i++ {
		r := fakeResult(10 * (i + 1))
		key := fmt.Sprintf("k%d", i)
		want += resultEntryBytes(key, r)
		c.Put(key, r)
	}
	if got := c.Stats().Bytes; got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	// Eviction releases the accounted bytes — key and overhead included.
	c2 := resultCacheOf(1)
	c2.Put("a", fakeResult(1000))
	c2.Put("b", fakeResult(10))
	if got := c2.Stats().Bytes; got != resultEntryBytes("b", fakeResult(10)) {
		t.Fatalf("post-eviction bytes = %d", got)
	}
}
