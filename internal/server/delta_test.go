package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/gen"
	"mdbgp/internal/lru"
)

// smallDelta builds a ~1%-churn delta body against g: one existing edge
// removed and one fresh edge added per 100 edges.
func smallDelta(t *testing.T, g *mdbgp.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mdbgp.WriteEdgeDelta(&buf, gen.PerturbDelta(g, 100, 7, 13)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submitDelta POSTs a delta body with ?base= and returns the decoded
// response plus its "delta" sub-object.
func submitDelta(t *testing.T, ts *httptest.Server, query string, body []byte) (int, map[string]any, map[string]any) {
	t.Helper()
	code, m := submit(t, ts, query, body)
	dv, _ := m["delta"].(map[string]any)
	return code, m, dv
}

func TestDeltaWarmSolveEndToEnd(t *testing.T) {
	g, body := testGraph(t, 7)
	_, ts := startServer(t, Config{Workers: 2})

	// Cold base solve.
	code, m := submit(t, ts, "k=4&seed=42&iters=40&wait=true", body)
	if code != http.StatusOK || m["status"] != "done" {
		t.Fatalf("base submit: %d %v", code, m)
	}
	baseID := m["job_id"].(string)
	baseHash := m["graph_hash"].(string)
	if len(baseHash) != 64 {
		t.Fatalf("graph_hash %q is not a sha256 hex digest", baseHash)
	}

	// Delta against the base job id: must be warm.
	code, m2, dv := submitDelta(t, ts, "k=4&seed=42&iters=40&base="+baseID+"&wait=true", smallDelta(t, g))
	if code != http.StatusOK || m2["status"] != "done" {
		t.Fatalf("delta submit: %d %v", code, m2)
	}
	if dv == nil {
		t.Fatalf("delta response lacks the delta object: %v", m2)
	}
	if dv["mode"] != "warm" {
		t.Fatalf("delta solve mode = %v, want warm (%v)", dv["mode"], dv)
	}
	if dv["base"] != baseHash {
		t.Fatalf("delta base = %v, want %v", dv["base"], baseHash)
	}
	if churn := dv["churn"].(float64); churn <= 0 || churn > 0.05 {
		t.Fatalf("churn = %v, want a small positive fraction", churn)
	}
	// The materialized graph differs from the base.
	if m2["graph_hash"] == baseHash {
		t.Fatal("delta job reports the base's graph hash")
	}
	final := pollDone(t, ts, m2["job_id"].(string))
	res, _ := final["result"].(map[string]any)
	if res == nil || res["k"].(float64) != 4 {
		t.Fatalf("delta job result: %v", final)
	}
	if v := metric(t, ts, "mdbgpd_delta_warm_total"); v != 1 {
		t.Fatalf("delta_warm_total = %v, want 1", v)
	}

	// The same delta against the base's graph HASH addresses the same
	// content: cache hit, byte-identical assignment.
	first := assignment(t, ts, m2["job_id"].(string))
	code, m3, dv3 := submitDelta(t, ts, "k=4&seed=42&iters=40&base="+baseHash+"&wait=true", smallDelta(t, g))
	if code != http.StatusOK {
		t.Fatalf("hash-addressed delta: %d %v", code, m3)
	}
	if m3["cache"] != "hit" {
		t.Fatalf("repeat delta should hit the result cache, got %v", m3["cache"])
	}
	if dv3["mode"] != "warm" {
		t.Fatalf("repeat delta mode = %v", dv3["mode"])
	}
	if !bytes.Equal(first, assignment(t, ts, m3["job_id"].(string))) {
		t.Fatal("repeat delta returned a different assignment")
	}
}

// TestDeltaWarmDiffersFromColdKey: a warm-started solve follows a different
// trajectory than a cold solve of the identical graph+options, so the two
// must occupy distinct cache entries — submitting the materialized graph in
// full must NOT serve the warm delta's cached result.
func TestDeltaWarmDiffersFromColdKey(t *testing.T) {
	g, body := testGraph(t, 17)
	_, ts := startServer(t, Config{Workers: 2})

	code, m := submit(t, ts, "k=2&seed=9&iters=40&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	code, m2, dv := submitDelta(t, ts, "k=2&seed=9&iters=40&wait=true&base="+m["job_id"].(string), smallDelta(t, g))
	if code != http.StatusOK || dv["mode"] != "warm" {
		t.Fatalf("delta: %d %v", code, m2)
	}

	// Rebuild the materialized graph client-side and submit it in full.
	d, err := mdbgp.ParseEdgeDelta(bytes.NewReader(smallDelta(t, g)), 0)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := mdbgp.ApplyEdgeDelta(g, d)
	var buf bytes.Buffer
	if err := mdbgp.WriteEdgeList(&buf, target); err != nil {
		t.Fatal(err)
	}
	code, m3 := submit(t, ts, "k=2&seed=9&iters=40&wait=true", buf.Bytes())
	if code != http.StatusOK {
		t.Fatalf("full target submit: %d", code)
	}
	if m3["graph_hash"] != m2["graph_hash"] {
		t.Fatalf("full submit and delta materialized different graphs: %v vs %v", m3["graph_hash"], m2["graph_hash"])
	}
	if m3["cache"] != "miss" {
		t.Fatalf("cold solve of the target must not reuse the warm entry, got cache=%v", m3["cache"])
	}
	if m3["key"] == m2["key"] {
		t.Fatal("warm and cold solves of the same graph share a content key")
	}
}

// TestDeltaEvictedBaseSolutionDegradesToCold is the regression test for the
// eviction fix: when memory pressure evicts the base's SOLUTION from the
// result cache (the base graph itself is still cached), a delta submission
// must degrade to a cold solve of the materialized graph — never a 500.
func TestDeltaEvictedBaseSolutionDegradesToCold(t *testing.T) {
	g, body := testGraph(t, 27)
	// CacheEntries=1: the second solve evicts the first's result.
	_, ts := startServer(t, Config{Workers: 1, CacheEntries: 1})

	code, m := submit(t, ts, "k=2&seed=5&iters=30&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	baseHash := m["graph_hash"].(string)

	// A different solve of another graph evicts the base's result.
	g2, body2 := testGraph(t, 28)
	_ = g2
	if code, _ := submit(t, ts, "k=2&seed=5&iters=30&wait=true", body2); code != http.StatusOK {
		t.Fatalf("evictor: %d", code)
	}

	code, m2, dv := submitDelta(t, ts, "k=2&seed=5&iters=30&wait=true&base="+baseHash, smallDelta(t, g))
	if code != http.StatusOK || m2["status"] != "done" {
		t.Fatalf("delta against evicted solution: %d %v", code, m2)
	}
	if dv["mode"] != "cold" {
		t.Fatalf("mode = %v, want cold", dv["mode"])
	}
	if !strings.Contains(dv["cold_reason"].(string), "not cached") {
		t.Fatalf("cold_reason = %v", dv["cold_reason"])
	}
	if v := metric(t, ts, "mdbgpd_delta_cold_total"); v != 1 {
		t.Fatalf("delta_cold_total = %v, want 1", v)
	}
	if v := metric(t, ts, "mdbgpd_jobs_failed_total"); v != 0 {
		t.Fatalf("jobs_failed_total = %v, want 0", v)
	}
}

// TestDeltaEvictedBaseGraphIsClientError: when the base GRAPH itself has
// been evicted there is nothing to apply the delta to; the client gets a
// clean 410 telling it to resubmit the full graph — never a 500.
func TestDeltaEvictedBaseGraphIsClientError(t *testing.T) {
	g, body := testGraph(t, 37)
	_, ts := startServer(t, Config{Workers: 1, GraphCacheEntries: 1})

	code, m := submit(t, ts, "k=2&seed=5&iters=30&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	// Another graph evicts the base from the 1-entry graph cache.
	_, body2 := testGraph(t, 38)
	if code, _ := submit(t, ts, "k=2&seed=5&iters=30&wait=true", body2); code != http.StatusOK {
		t.Fatalf("evictor: %d", code)
	}

	code, m2, _ := submitDelta(t, ts, "k=2&seed=5&iters=30&base="+m["job_id"].(string), smallDelta(t, g))
	if code != http.StatusGone {
		t.Fatalf("delta against evicted base graph: %d %v, want 410", code, m2)
	}
	if v := metric(t, ts, "mdbgpd_delta_base_misses_total"); v != 1 {
		t.Fatalf("base_misses_total = %v, want 1", v)
	}
	if v := metric(t, ts, "mdbgpd_graph_cache_evictions_total"); v < 1 {
		t.Fatalf("graph_cache_evictions_total = %v, want >= 1", v)
	}
}

// TestDeltaChurnThresholdForcesCold: a delta rewriting most of the graph is
// past the point where the base solution helps; the server must solve cold.
func TestDeltaChurnThresholdForcesCold(t *testing.T) {
	g, body := testGraph(t, 47)
	_, ts := startServer(t, Config{Workers: 1, MaxChurn: 0.01})

	code, m := submit(t, ts, "k=2&seed=3&iters=30&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	// Remove every 10th edge: ~10% churn against a 1% threshold.
	var buf bytes.Buffer
	i := 0
	g.EachEdge(func(u, v int) bool {
		if i%10 == 0 {
			fmt.Fprintf(&buf, "-%d %d\n", u, v)
		}
		i++
		return true
	})
	code, m2, dv := submitDelta(t, ts, "k=2&seed=3&iters=30&wait=true&base="+m["job_id"].(string), buf.Bytes())
	if code != http.StatusOK || m2["status"] != "done" {
		t.Fatalf("big delta: %d %v", code, m2)
	}
	if dv["mode"] != "cold" || !strings.Contains(dv["cold_reason"].(string), "churn") {
		t.Fatalf("mode=%v reason=%v, want cold/churn", dv["mode"], dv["cold_reason"])
	}
}

// TestDeltaChaining: a delta whose base is itself a (warm-solved) delta job
// still warm-starts, via the retained base job's result.
func TestDeltaChaining(t *testing.T) {
	g, body := testGraph(t, 57)
	_, ts := startServer(t, Config{Workers: 1})

	code, m := submit(t, ts, "k=4&seed=11&iters=40&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	code, m2, dv2 := submitDelta(t, ts, "k=4&seed=11&iters=40&wait=true&base="+m["job_id"].(string), smallDelta(t, g))
	if code != http.StatusOK || dv2["mode"] != "warm" {
		t.Fatalf("first delta: %d %v", code, m2)
	}
	// Second delta against the first delta's job: its result is keyed with
	// a warm fingerprint, so this exercises the job-result fallback.
	code, m3, dv3 := submitDelta(t, ts, "k=4&seed=11&iters=40&wait=true&base="+m2["job_id"].(string), []byte("+1 5\n+2 9\n"))
	if code != http.StatusOK || m3["status"] != "done" {
		t.Fatalf("chained delta: %d %v", code, m3)
	}
	if dv3["mode"] != "warm" {
		t.Fatalf("chained delta mode = %v, want warm (%v)", dv3["mode"], dv3)
	}
}

// TestDeltaCoalescedKeepsDeltaMetadata: a delta submission that coalesces
// onto an identical in-flight job must still report its own delta
// resolution (mode, churn, cold_reason) in the submit response — the
// in-flight job's view has no delta to fall back on.
func TestDeltaCoalescedKeepsDeltaMetadata(t *testing.T) {
	g, body := testGraph(t, 87)
	// MaxChurn < 0 forces every delta cold, so no base solution is needed
	// and two identical deltas share a content key with no warm component.
	_, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4, MaxChurn: -1})

	code, m := submit(t, ts, "seed=5", body)
	if code != http.StatusAccepted {
		t.Fatalf("base submit: %d", code)
	}
	<-entered // base occupies the only worker; its graph is already cached

	delta := smallDelta(t, g)
	code, m2, dv2 := submitDelta(t, ts, "seed=5&base="+m["job_id"].(string), delta)
	if code != http.StatusAccepted {
		t.Fatalf("first delta: %d %v", code, m2)
	}
	if dv2 == nil || dv2["mode"] != "cold" {
		t.Fatalf("first delta resolution: %v", dv2)
	}

	code, m3, dv3 := submitDelta(t, ts, "seed=5&base="+m["job_id"].(string), delta)
	if code != http.StatusAccepted || m3["job_id"] != m2["job_id"] {
		t.Fatalf("second delta should coalesce onto %v: %d %v", m2["job_id"], code, m3)
	}
	if dv3 == nil || dv3["mode"] != "cold" || dv3["cold_reason"] == "" {
		t.Fatalf("coalesced delta response lost its delta metadata: %v", m3)
	}
	if v := metric(t, ts, "mdbgpd_delta_cold_total"); v != 2 {
		t.Fatalf("delta_cold_total = %v, want 2 (both submissions dispatched)", v)
	}

	close(release)
	pollDone(t, ts, m2["job_id"].(string))
}

func TestDeltaErrorPaths(t *testing.T) {
	g, body := testGraph(t, 67)
	_, ts := startServer(t, Config{Workers: 1, MaxVertexID: 1 << 20})

	code, m := submit(t, ts, "k=2&seed=1&iters=20&wait=true", body)
	if code != http.StatusOK {
		t.Fatalf("base: %d", code)
	}
	baseID := m["job_id"].(string)

	post := func(query string, body []byte) int {
		code, _, _ := submitDelta(t, ts, query, body)
		return code
	}
	if got := post("base=nope", smallDelta(t, g)); got != http.StatusNotFound {
		t.Errorf("unknown base: %d, want 404", got)
	}
	if got := post("base="+strings.Repeat("ab", 32), smallDelta(t, g)); got != http.StatusGone {
		t.Errorf("well-formed but uncached hash: %d, want 410", got)
	}
	if got := post("base="+baseID, []byte("1 2\n")); got != http.StatusBadRequest {
		t.Errorf("unsigned delta line: %d, want 400", got)
	}
	if got := post("base="+baseID, []byte("+1 9999999\n")); got != http.StatusBadRequest {
		t.Errorf("delta id above bound: %d, want 400", got)
	}
	// A delta that removes every edge leaves nothing to partition.
	var all bytes.Buffer
	g.EachEdge(func(u, v int) bool { fmt.Fprintf(&all, "-%d %d\n", u, v); return true })
	if got := post("base="+baseID, all.Bytes()); got != http.StatusBadRequest {
		t.Errorf("empty result graph: %d, want 400", got)
	}
}

// TestDeltaWarmDeterminism: same base, same delta, same seed — byte-identical
// assignments across server parallelism, the serving-level warm determinism
// contract.
func TestDeltaWarmDeterminism(t *testing.T) {
	g, body := testGraph(t, 77)
	delta := smallDelta(t, g)
	var golden []byte
	for _, p := range []int{1, 2, 8} {
		_, ts := startServer(t, Config{Workers: p, Parallelism: p})
		code, m := submit(t, ts, "k=4&seed=21&iters=40&wait=true", body)
		if code != http.StatusOK {
			t.Fatalf("p=%d base: %d", p, code)
		}
		code, m2, dv := submitDelta(t, ts, "k=4&seed=21&iters=40&wait=true&base="+m["job_id"].(string), delta)
		if code != http.StatusOK || dv["mode"] != "warm" {
			t.Fatalf("p=%d delta: %d %v", p, code, m2)
		}
		a := assignment(t, ts, m2["job_id"].(string))
		if golden == nil {
			golden = a
		} else if !bytes.Equal(golden, a) {
			t.Fatalf("p=%d: warm delta assignment diverged", p)
		}
	}
}

func TestGraphCache(t *testing.T) {
	c := newServer(Config{GraphCacheEntries: 2}).graphs
	g1, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 50, Communities: 2, AvgDegree: 4, Seed: 1})
	g2, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 60, Communities: 2, AvgDegree: 4, Seed: 2})
	g3, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 70, Communities: 2, AvgDegree: 4, Seed: 3})

	c.GetOrPut(g1.HashString(), g1)
	c.GetOrPut(g2.HashString(), g2)
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evicted %d within capacity", ev)
	}
	// Touch g1 so g2 is the LRU victim.
	if _, ok := c.Get(g1.HashString(), nil); !ok {
		t.Fatal("g1 missing")
	}
	c.GetOrPut(g3.HashString(), g3)
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("expected one eviction, got %d", ev)
	}
	if _, ok := c.Get(g2.HashString(), nil); ok {
		t.Fatal("g2 should have been evicted (LRU)")
	}
	if _, ok := c.Get(g1.HashString(), nil); !ok {
		t.Fatal("g1 lost")
	}
	st := c.Stats()
	if want := int64(len(g1.HashString())+len(g3.HashString())) + 2*lru.EntryOverhead + graphBytes(g1) + graphBytes(g3); st.Entries != 2 || st.Bytes != want {
		t.Fatalf("stats = %+v, want 2 entries / %d bytes", st, want)
	}
	// A same-content resubmission is a new instance; the cache hands back
	// the retained one and only refreshes recency.
	dup, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{N: 50, Communities: 2, AvgDegree: 4, Seed: 1})
	if got := c.GetOrPut(dup.HashString(), dup); got != g1 {
		t.Fatal("resubmission was not canonicalized onto the retained instance")
	}
	if after := c.Stats(); after != st {
		t.Fatalf("refresh changed the accounting: %+v -> %+v", st, after)
	}
	// A disabled cache retains nothing and canonicalizes nothing.
	d := newServer(Config{GraphCacheEntries: -1}).graphs
	if got := d.GetOrPut(g1.HashString(), dup); got != dup {
		t.Fatal("disabled graph cache swapped the caller's instance")
	}
	if n := d.Stats().Entries; n != 0 {
		t.Fatal("disabled graph cache retained an entry")
	}
}

// TestDeltaPoisonedWarmBase400: a resolved warm assignment carrying a part
// id outside [0, K) — a corrupted retained result, or a prior from a
// different K — must be rejected with a 400 at submit time, not dispatched
// into a failed job (or surfaced as a 500).
func TestDeltaPoisonedWarmBase400(t *testing.T) {
	g, body := testGraph(t, 23)
	srv, ts := startServer(t, Config{Workers: 2})

	code, m := submit(t, ts, "k=4&seed=1&iters=30&wait=true", body)
	if code != http.StatusOK || m["status"] != "done" {
		t.Fatalf("base submit: %d %v", code, m)
	}
	baseID := m["job_id"].(string)

	// Poison the retained result in place (the result cache and the job
	// share the same *Result, so both warm-resolution paths see it).
	srv.mu.Lock()
	j := srv.jobs[baseID]
	srv.mu.Unlock()
	j.mu.Lock()
	j.res.Assignment.Parts[0] = 99 // >= K: not a usable prior
	j.mu.Unlock()

	code, m2, _ := submitDelta(t, ts, "k=4&seed=1&iters=30&wait=true&base="+baseID, smallDelta(t, g))
	if code != http.StatusBadRequest {
		t.Fatalf("poisoned warm base: status %d (%v), want 400", code, m2)
	}
	msg, _ := m2["error"].(string)
	if !strings.Contains(msg, "warm") || !strings.Contains(msg, "99") {
		t.Fatalf("error %q should name the warm assignment and the bad part id", msg)
	}
}
