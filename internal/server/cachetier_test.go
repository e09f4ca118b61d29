package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"mdbgp"
	"mdbgp/internal/cachestore"
	"mdbgp/internal/lru"
	"mdbgp/internal/ring"
)

// waitDiskEntries blocks until the write-behind queue has landed n entries.
func waitDiskEntries(t *testing.T, s *Server, n int64) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if _, _, _, _, entries := s.disk.Stats(); entries >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("disk tier never reached %d entries", n)
}

// TestDiskTierSurvivesRestart: a result solved before a restart is served as
// a cache hit — byte-identically — by a fresh server over the same cache
// dir, without re-solving.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, body := testGraph(t, 71)

	s1, ts1 := startServer(t, Config{Workers: 1, CacheDir: dir})
	code, m := submit(t, ts1, "seed=1&wait=true", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollDone(t, ts1, m["job_id"].(string))
	asn1 := assignment(t, ts1, m["job_id"].(string))
	waitDiskEntries(t, s1, 1)
	ts1.Close()
	s1.Close()

	// "Restart": a brand-new process state over the surviving directory. The
	// memory LRU is empty, so only the disk tier can make this a hit.
	s2, ts2 := startServer(t, Config{Workers: 1, CacheDir: dir})
	code, m2 := submit(t, ts2, "seed=1", body)
	if code != http.StatusOK {
		t.Fatalf("post-restart submit: status %d, want 200 (disk-tier hit)", code)
	}
	if m2["cache"] != "hit" {
		t.Fatalf("post-restart cache = %v, want hit", m2["cache"])
	}
	asn2 := assignment(t, ts2, m2["job_id"].(string))
	if !bytes.Equal(asn1, asn2) {
		t.Fatal("restored result differs from the original solve")
	}
	if hits, _, _, _, _ := s2.disk.Stats(); hits != 1 {
		t.Fatalf("disk hits = %d, want 1", hits)
	}
	if v := metric(t, ts2, "mdbgpd_cache_disk_hits_total"); v != 1 {
		t.Fatalf("mdbgpd_cache_disk_hits_total = %v, want 1", v)
	}
	// The hit was promoted into memory: a repeat stays off the disk tier.
	if code, _ := submit(t, ts2, "seed=1", body); code != http.StatusOK {
		t.Fatal("promoted entry missed")
	}
	if hits, _, _, _, _ := s2.disk.Stats(); hits != 1 {
		t.Fatalf("repeat went back to disk: hits = %d, want still 1", hits)
	}
}

// TestCacheEndpoints: the peer-facing index and entry endpoints serve the
// durable tier (and only it), 404 without a configured tier, and the raw
// bytes they serve verify and decode.
func TestCacheEndpoints(t *testing.T) {
	dir := t.TempDir()
	_, body := testGraph(t, 72)
	s, ts := startServer(t, Config{Workers: 1, CacheDir: dir})

	code, m := submit(t, ts, "seed=1&wait=true", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollDone(t, ts, m["job_id"].(string))
	waitDiskEntries(t, s, 1)
	key := m["key"].(string)

	code, idx := getJSON(t, ts.URL+"/v1/cache")
	if code != http.StatusOK {
		t.Fatalf("cache index: status %d", code)
	}
	keys, ok := idx["keys"].([]any)
	if !ok || len(keys) != 1 || keys[0] != key {
		t.Fatalf("cache index = %v, want [%s]", idx, key)
	}

	resp, err := http.Get(ts.URL + "/v1/cache/" + url.PathEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache entry: status %d (%s)", resp.StatusCode, raw)
	}
	gotKey, res, err := cachestore.DecodeEntry(raw)
	if err != nil || gotKey != key || res == nil {
		t.Fatalf("served entry does not verify: key %q err %v", gotKey, err)
	}

	if resp, err := http.Get(ts.URL + "/v1/cache/" + url.PathEscape("no:such:key:here")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown entry: status %d, want 404", resp.StatusCode)
		}
	}

	// No disk tier configured: both endpoints say so instead of panicking.
	_, tsNone := startServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/cache", "/v1/cache/x"} {
		if code, _ := getJSON(t, tsNone.URL+path); code != http.StatusNotFound {
			t.Fatalf("GET %s without a disk tier: status %d, want 404", path, code)
		}
	}
}

// TestWarmFromPeers: a fresh replica pulls exactly its ring-owned entries
// from a peer's durable tier and then serves them as local hits.
func TestWarmFromPeers(t *testing.T) {
	peer, peerTS := startServer(t, Config{Workers: 2, CacheDir: t.TempDir()})
	fresh, freshTS := startServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	self, peers := freshTS.URL, []string{peerTS.URL}

	// Ring ownership keys on the graph hash, and the ring members are the
	// httptest URLs (random ports) — so pick seeds until the fixture has at
	// least one graph on each side instead of praying over fixed seeds.
	rng := ring.New([]string{self, peerTS.URL}, 0)
	var bodies [][]byte
	wantFetched, wantSkipped := 0, 0
	for seed := int64(73); wantFetched == 0 || wantSkipped == 0; seed++ {
		g, body := testGraph(t, seed)
		if rng.Owner(g.HashString()) == self {
			wantFetched++
		} else {
			wantSkipped++
		}
		bodies = append(bodies, body)
	}

	for _, body := range bodies {
		code, m := submit(t, peerTS, "seed=1&wait=true", body)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("peer submit: status %d", code)
		}
		pollDone(t, peerTS, m["job_id"].(string))
	}
	waitDiskEntries(t, peer, int64(len(bodies)))

	st := fresh.WarmFromPeers(self, peers, 2)
	if st.PeersPolled != 1 || st.KeysSeen != len(bodies) || st.Errors != 0 {
		t.Fatalf("warm stats = %+v, want %d keys seen", st, len(bodies))
	}
	if st.Fetched != wantFetched || st.Skipped != wantSkipped {
		t.Fatalf("warm stats = %+v, want fetched=%d skipped=%d", st, wantFetched, wantSkipped)
	}
	// Ring ownership decided what moved: every fetched entry's graph hash
	// must hash to self on the two-member ring, every skipped one must not.
	// Verify through the store rather than re-deriving the split.
	for _, key := range fresh.disk.Keys() {
		if got, ok := fresh.disk.Get(key); !ok || got == nil {
			t.Fatalf("warmed entry %s does not read back", key)
		}
		res, ok := peer.disk.Get(key)
		if !ok {
			t.Fatalf("warmed entry %s not present on the peer it came from", key)
		}
		_ = res
	}
	// Warming is idempotent: a second pass fetches nothing new.
	st2 := fresh.WarmFromPeers(self, peers, 2)
	if st2.Fetched != 0 || st2.Errors != 0 {
		t.Fatalf("second warm pass re-fetched: %+v", st2)
	}
	if v := metric(t, freshTS, "mdbgpd_cache_warm_fetched_total"); v != float64(st.Fetched) {
		t.Fatalf("mdbgpd_cache_warm_fetched_total = %v, want %d", v, st.Fetched)
	}
}

// TestTrustedHashHeader: with TrustHashHeader set, a well-formed
// X-Mdbgp-Graph-Hash wins over local hashing (normalized to lowercase); a
// malformed one falls back silently; without the flag the header is inert.
func TestTrustedHashHeader(t *testing.T) {
	_, body := testGraph(t, 76)
	fake := strings.Repeat("AB12", 16)
	post := func(ts *httptest.Server, header string) map[string]any {
		t.Helper()
		req, err := http.NewRequest("POST", ts.URL+"/v1/partition?seed=1&wait=true", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if header != "" {
			req.Header.Set(GraphHashHeader, header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		pollDone(t, ts, m["job_id"].(string))
		return m
	}

	_, trusted := startServer(t, Config{Workers: 1, TrustHashHeader: true})
	real := post(trusted, "")["graph_hash"].(string)
	if got := post(trusted, fake)["graph_hash"]; got != strings.ToLower(fake) {
		t.Fatalf("trusted header ignored: graph_hash %v, want %s", got, strings.ToLower(fake))
	}
	if got := post(trusted, "not-a-hash")["graph_hash"]; got != real {
		t.Fatalf("malformed header did not fall back to local hashing: %v", got)
	}

	_, untrusted := startServer(t, Config{Workers: 1})
	if got := post(untrusted, fake)["graph_hash"]; got != real {
		t.Fatalf("header honored without TrustHashHeader: %v", got)
	}
}

// TestResultCacheMetrics pins the result-cache series over HTTP. With room
// for one result, solving a second graph evicts the first (a solve-fill
// eviction), and resubmitting the first promotes it back from the disk tier,
// evicting the second (a promotion eviction). Both byte gauges must equal
// key + lru.EntryOverhead + payload for exactly what is retained.
func TestResultCacheMetrics(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1, CacheEntries: 1, CacheDir: t.TempDir()})
	gA, bodyA := testGraph(t, 81)
	gB, bodyB := testGraph(t, 82)
	var first map[string]any
	for i, body := range [][]byte{bodyA, bodyB} {
		code, m := submit(t, ts, "seed=1&wait=true", body)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, code)
		}
		pollDone(t, ts, m["job_id"].(string))
		waitDiskEntries(t, s, int64(i+1))
		if first == nil {
			first = m
		}
	}
	if v := metric(t, ts, "mdbgpd_cache_evictions_total"); v != 1 {
		t.Fatalf("after two solves mdbgpd_cache_evictions_total = %v, want 1", v)
	}
	code, m := submit(t, ts, "seed=1", bodyA)
	if code != http.StatusOK || m["cache"] != "hit" {
		t.Fatalf("resubmission: status %d cache %v, want a disk-tier hit", code, m["cache"])
	}
	if hits, _, _, _, _ := s.disk.Stats(); hits != 1 {
		t.Fatalf("disk hits = %d, want 1", hits)
	}
	if v := metric(t, ts, "mdbgpd_cache_evictions_total"); v != 2 {
		t.Fatalf("mdbgpd_cache_evictions_total = %v, want 2 (solve fill + disk promotion)", v)
	}
	if v := metric(t, ts, "mdbgpd_cache_entries"); v != 1 {
		t.Fatalf("mdbgpd_cache_entries = %v, want 1", v)
	}

	s.mu.Lock()
	jobA := s.jobs[first["job_id"].(string)]
	s.mu.Unlock()
	jobA.mu.Lock()
	resA := jobA.res
	jobA.mu.Unlock()
	want := int64(len(first["key"].(string))) + lru.EntryOverhead + resultBytes(resA)
	if v := metric(t, ts, "mdbgpd_cache_bytes"); v != float64(want) {
		t.Fatalf("mdbgpd_cache_bytes = %v, want %d", v, want)
	}
	want = 0
	for _, g := range []*mdbgp.Graph{gA, gB} {
		want += int64(len(g.HashString())) + lru.EntryOverhead + graphBytes(g)
	}
	if v := metric(t, ts, "mdbgpd_graph_cache_bytes"); v != float64(want) {
		t.Fatalf("mdbgpd_graph_cache_bytes = %v, want %d", v, want)
	}
}
