package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// val is a test payload with a fixed reported size and an identity tag.
type val struct {
	size int64
	tag  int
}

func valBytes(v *val) int64 { return v.size }

func key(i int) string { return fmt.Sprintf("k%02d", i) }

// entryBytes is the accounted size of one entry.
func entryBytes(key string, v *val) int64 { return int64(len(key)) + EntryOverhead + v.size }

// liveBytes recomputes the byte gauge's ground truth from the live entries.
func liveBytes(c *Cache[*val]) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[*val])
		total += entryBytes(e.key, e.val)
	}
	return total
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache[*val]{
		NewEntries(0, valBytes), NewEntries(-1, valBytes),
		NewBytes(0, valBytes), NewBytes(-1, valBytes),
	} {
		if c.Enabled() {
			t.Fatal("cache with bound <= 0 reports enabled")
		}
		c.Put("a", &val{size: 10})
		if _, ok := c.Get("a", nil); ok {
			t.Fatal("disabled Get hit")
		}
		own := &val{size: 10}
		if got := c.GetOrPut("a", own); got != own {
			t.Fatal("disabled GetOrPut did not return the caller's value")
		}
		if st := c.Stats(); st != (Stats{}) {
			t.Fatalf("disabled stats %+v", st)
		}
	}
}

func TestPutGetAndLRUEviction(t *testing.T) {
	// The byte budget fits exactly two entries.
	per := entryBytes(key(0), &val{size: 1000})
	c := NewBytes(2*per, valBytes)
	for i := 0; i < 3; i++ {
		c.Put(key(i), &val{size: 1000, tag: i})
	}
	// k00 is the LRU and must be gone; k01 and k02 remain.
	if _, ok := c.Get(key(0), nil); ok {
		t.Fatal("k00 survived eviction")
	}
	for i := 1; i < 3; i++ {
		if v, ok := c.Get(key(i), nil); !ok || v.tag != i {
			t.Fatalf("k%02d missing after eviction", i)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Bytes != 2*per || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries, %d bytes, 1 eviction", st, 2*per)
	}
	// Touch k01 so k02 becomes the LRU, then force one more eviction.
	c.Get(key(1), nil)
	c.Put(key(3), &val{size: 1000, tag: 3})
	if _, ok := c.Get(key(2), nil); ok {
		t.Fatal("k02 should have been evicted (k01 was touched more recently)")
	}
	if _, ok := c.Get(key(1), nil); !ok {
		t.Fatal("k01 should have survived (promoted by Get)")
	}
	// The count bound evicts in the same order.
	n := NewEntries(2, valBytes)
	n.Put("a", &val{})
	n.Put("b", &val{})
	n.Get("a", nil)
	n.Put("c", &val{})
	if _, ok := n.Get("b", nil); ok {
		t.Fatal("count bound evicted the promoted entry instead of the LRU")
	}
	if st := n.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("count-bound stats %+v, want 2 entries, 1 eviction", st)
	}
}

func TestReplaceAccountsBytes(t *testing.T) {
	for name, c := range map[string]*Cache[*val]{"bytes": NewBytes(1<<20, valBytes), "entries": NewEntries(4, valBytes)} {
		c.Put("a", &val{size: 1000})
		bigger := &val{size: 4000}
		c.Put("a", bigger)
		if v, ok := c.Get("a", nil); !ok || v != bigger {
			t.Fatalf("%s: replace did not refresh the value", name)
		}
		if st := c.Stats(); st.Entries != 1 || st.Bytes != entryBytes("a", bigger) || st.Evictions != 0 {
			t.Fatalf("%s: stats after replace %+v, want 1 entry of %d bytes", name, st, entryBytes("a", bigger))
		}
	}
}

func TestOversizeArtifactNotCached(t *testing.T) {
	c := NewBytes(2048, valBytes)
	c.Put("small", &val{size: 100})
	c.Put("huge", &val{size: 1 << 20})
	if _, ok := c.Get("huge", nil); ok {
		t.Fatal("oversize value was cached")
	}
	if _, ok := c.Get("small", nil); !ok {
		t.Fatal("oversize Put disturbed the working set")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("oversize Put evicted %d entries", st.Evictions)
	}
	// An oversize replacement still drops the stale prior entry.
	c.Put("small", &val{size: 1 << 20})
	if _, ok := c.Get("small", nil); ok {
		t.Fatal("stale entry survived an oversize replacement")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversize replacement: %+v", st)
	}
}

func TestValidationFailureCountsAsMiss(t *testing.T) {
	c := NewBytes(1<<20, valBytes)
	c.Put("a", &val{size: 100, tag: 1})
	if _, ok := c.Get("a", func(v *val) bool { return v.tag == 2 }); ok {
		t.Fatal("invalid entry served as a hit")
	}
	// The stale entry must be gone, not just skipped.
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry retained: %+v", st)
	}
	// A later Get without a validator is a clean miss, not a resurrection.
	if _, ok := c.Get("a", nil); ok {
		t.Fatal("removed entry resurrected")
	}
}

// TestGetOrPut pins the graph-canonicalization contract: the first value put
// under a key is the one every later GetOrPut hands back.
func TestGetOrPut(t *testing.T) {
	c := NewEntries(2, valBytes)
	first := &val{size: 10, tag: 1}
	if got := c.GetOrPut("a", first); got != first {
		t.Fatal("GetOrPut on a new key did not return the caller's value")
	}
	if got := c.GetOrPut("a", &val{size: 10, tag: 2}); got != first {
		t.Fatal("GetOrPut on a present key did not return the retained value")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != entryBytes("a", first) {
		t.Fatalf("a present-key GetOrPut changed the accounting: %+v", st)
	}
	c.GetOrPut("b", &val{})
	c.GetOrPut("a", &val{}) // promotes a, so b is the LRU
	c.GetOrPut("c", &val{})
	if _, ok := c.Get("b", nil); ok {
		t.Fatal("GetOrPut did not promote the present key")
	}
	if v, ok := c.Get("a", nil); !ok || v != first {
		t.Fatal("canonical value lost")
	}
}

// TestCacheBytesHammer churns both bound kinds with interleaved inserts,
// replacements of varying payload sizes, promotions and evictions, asserting
// after every operation that the incrementally maintained byte gauge matches
// a recomputed ground truth and never needs the negative clamp.
func TestCacheBytesHammer(t *testing.T) {
	for name, c := range map[string]*Cache[*val]{
		"entries": NewEntries(16, valBytes),
		"bytes":   NewBytes(16_000, valBytes),
	} {
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 5000; op++ {
			k := fmt.Sprintf("key-%d", rng.Intn(48)) // collisions force the replace path
			if rng.Intn(4) == 0 {
				c.GetOrPut(k, &val{size: int64(rng.Intn(2000))})
			} else {
				c.Put(k, &val{size: int64(rng.Intn(2000))})
			}
			if rng.Intn(3) == 0 {
				c.Get(fmt.Sprintf("key-%d", rng.Intn(48)), nil) // promotions reshuffle eviction order
			}
			if got, want := c.Stats().Bytes, liveBytes(c); got != want {
				t.Fatalf("%s op %d: bytes gauge = %d, ground truth = %d (drift %d)", name, op, got, want, got-want)
			}
		}
		st := c.Stats()
		if name == "entries" && st.Entries != 16 {
			t.Fatalf("entries = %d, want capacity 16", st.Entries)
		}
		if name == "bytes" && st.Bytes > 16_000 {
			t.Fatalf("bytes = %d, over the 16000 budget", st.Bytes)
		}
		if st.Clamps != 0 {
			t.Fatalf("%s: correct accounting still clamped %d times", name, st.Clamps)
		}
	}
}

// TestCacheBytesClamp corrupts an entry's accounted size to force the gauge
// negative and asserts the clamp fires: the gauge floors at zero and the
// counter records the event instead of the gauge silently underflowing.
func TestCacheBytesClamp(t *testing.T) {
	c := NewEntries(4, valBytes)
	c.Put("a", &val{size: 10})
	c.mu.Lock()
	c.items["a"].Value.(*entry[*val]).bytes += 1 << 40 // simulate a mischarge
	c.mu.Unlock()
	c.Put("a", &val{size: 10}) // the replace path credits the inflated size
	if st := c.Stats(); st.Bytes != 0 || st.Clamps != 1 {
		t.Fatalf("stats %+v, want bytes clamped at 0 and 1 clamp", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewBytes(64<<10, valBytes)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(i % 16)
				switch {
				case i%5 == 0:
					c.GetOrPut(k, &val{size: int64(100 * (i%7 + 1)), tag: w})
				case i%3 == 0:
					c.Stats()
				default:
					if _, ok := c.Get(k, func(v *val) bool { return v.tag != w || i%11 != 0 }); !ok {
						c.Put(k, &val{size: int64(100 * (i%7 + 1)), tag: w})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Clamps != 0 {
		t.Fatalf("byte accounting clamped %d times under concurrency", st.Clamps)
	}
	if st.Entries > 16 {
		t.Fatalf("implausible stats %+v", st)
	}
	if want := liveBytes(c); st.Bytes != want {
		t.Fatalf("byte gauge %d != live-entry sum %d", st.Bytes, want)
	}
}
