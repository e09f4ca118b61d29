package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"mdbgp"
	"mdbgp/internal/obs"
)

// TestResolveWarmReturnsDefensiveCopy: the warm assignment handed to a delta
// solve must be a private copy — the solver mutates its working assignment,
// and before the fix that scribbled directly over the cached base result.
func TestResolveWarmReturnsDefensiveCopy(t *testing.T) {
	_, body := testGraph(t, 61)
	s, ts := startServer(t, Config{Workers: 1})

	code, m := submit(t, ts, "seed=1&wait=true", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollDone(t, ts, m["job_id"].(string))
	hash := m["graph_hash"].(string)

	dims, names, err := mdbgp.ParseWeightDims("")
	if err != nil {
		t.Fatal(err)
	}
	req := submitRequest{opts: mdbgp.Options{Seed: 1}, dims: dims, dimNames: names}
	key := cacheKey(hash, names, req.opts.Canonical())
	cached, ok := s.cache.Get(key, nil)
	if !ok {
		t.Fatalf("base result not cached under %s", key)
	}
	before := append([]int32(nil), cached.Assignment.Parts...)

	// Path 1: warm start resolved from the result cache.
	warm := s.resolveWarm(hash, nil, req)
	if warm == nil {
		t.Fatal("resolveWarm found no cached base solution")
	}
	for i := range warm {
		warm[i] += 1000 // the solve "improving" its working assignment
	}
	after, ok := s.cache.Get(key, nil)
	if !ok {
		t.Fatal("base result vanished from the cache")
	}
	if !bytes.Equal(int32Bytes(before), int32Bytes(after.Assignment.Parts)) {
		t.Fatal("mutating a warm solve's input corrupted the cached base result")
	}

	// Path 2: warm start resolved from the retained base job.
	s.mu.Lock()
	baseJob := s.jobs[m["job_id"].(string)]
	s.mu.Unlock()
	if baseJob == nil {
		t.Fatal("base job not retained")
	}
	warm2 := s.resolveWarm(hash, baseJob, submitRequest{
		opts: mdbgp.Options{Seed: 2}, dims: dims, dimNames: names, // different seed: cache misses, job path resolves
	})
	if warm2 == nil {
		t.Fatal("resolveWarm did not fall back to the retained job result")
	}
	for i := range warm2 {
		warm2[i] = -1
	}
	if v := baseJob.view(); !bytes.Equal(int32Bytes(before), int32Bytes(v.Res.Assignment.Parts)) {
		t.Fatal("mutating a warm solve's input corrupted the retained job result")
	}
}

func int32Bytes(xs []int32) []byte {
	out := make([]byte, 0, len(xs)*4)
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}

// assertAllSpansEnded walks a snapshot and fails on any span End never
// reached — a dangling span pins its subtree in the "still running" state
// forever in trace output.
func assertAllSpansEnded(t *testing.T, root *obs.Span, context string) {
	t.Helper()
	root.Snapshot().Walk(func(sp *obs.SpanView) {
		if !sp.Ended {
			t.Fatalf("%s: span %q left unended", context, sp.Name)
		}
	})
}

// TestRejectedSubmissionEndsSpans: the 429, coalesce and shutdown paths of
// dispatch must close every span they opened. Before the fix the 429 path
// dropped the request with its root trace and queue-wait spans still open.
func TestRejectedSubmissionEndsSpans(t *testing.T) {
	g, body := testGraph(t, 62)
	s, ts, entered, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})

	code, _ := submit(t, ts, "seed=1", body)
	if code != http.StatusAccepted {
		t.Fatalf("job A: status %d", code)
	}
	<-entered // A occupies the only worker
	if code, _ := submit(t, ts, "seed=2", body); code != http.StatusAccepted {
		t.Fatalf("job B: status %d", code)
	}

	// C: queue saturated — dispatch directly so the rejected request's trace
	// stays inspectable after the handler returns.
	hr := httptest.NewRequest("POST", "/v1/partition?seed=3", nil)
	req, err := parseSubmit(hr)
	if err != nil {
		t.Fatal(err)
	}
	ing := &ingestInfo{g: g, n: g.N(), m: g.M(), hash: g.HashString(), mode: ingestModeResident}
	root := obs.NewTrace("request")
	rec := httptest.NewRecorder()
	s.dispatch(rec, hr, req, ing, req.opts.Canonical(), nil, root)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated dispatch: status %d, want 429", rec.Code)
	}
	assertAllSpansEnded(t, root, "429 rejection")

	// Coalesce: an identical request attaching to an in-flight job ends its
	// own (discarded) root.
	hrA := httptest.NewRequest("POST", "/v1/partition?seed=1", nil)
	reqA, err := parseSubmit(hrA)
	if err != nil {
		t.Fatal(err)
	}
	rootA := obs.NewTrace("request")
	recA := httptest.NewRecorder()
	s.dispatch(recA, hrA, reqA, ing, reqA.opts.Canonical(), nil, rootA)
	if recA.Code != http.StatusAccepted {
		t.Fatalf("coalesced dispatch: status %d, want 202", recA.Code)
	}
	assertAllSpansEnded(t, rootA, "coalesced submission")
	close(release)

	// Shutdown: a dispatch losing the race with Close still ends its root.
	s2 := newServer(Config{})
	s2.down.Store(true)
	root2 := obs.NewTrace("request")
	rec2 := httptest.NewRecorder()
	s2.dispatch(rec2, hr, req, ing, req.opts.Canonical(), nil, root2)
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("down dispatch: status %d, want 503", rec2.Code)
	}
	assertAllSpansEnded(t, root2, "shutdown rejection")
}

// TestRetireBoundsBackingArray: retiring jobs far past the retention cap must
// not let doneOrder's backing array creep — the old doneOrder[1:] trim kept
// every evicted slot reachable, so the array only ever grew.
func TestRetireBoundsBackingArray(t *testing.T) {
	const retain = 16
	s := newServer(Config{RetainJobs: retain})
	const n = 10000
	for i := 0; i < n; i++ {
		j := &job{id: s.newJobID("k"), key: "k"}
		s.mu.Lock()
		s.jobs[j.id] = j
		s.mu.Unlock()
		s.retire(j)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != retain {
		t.Fatalf("retained %d jobs, want %d", len(s.jobs), retain)
	}
	if live := len(s.doneOrder) - s.doneHead; live != retain {
		t.Fatalf("live window is %d ids, want %d", live, retain)
	}
	// The compaction bound: len stays within ~2× the retention cap, and cap —
	// the actual allocation — within append's growth slack of that. Before
	// the fix cap reached ~n.
	if cap(s.doneOrder) > 8*retain {
		t.Fatalf("doneOrder backing array crept to cap %d after %d retires (retain %d)", cap(s.doneOrder), n, retain)
	}
	// Every live slot names a retained job, every retained job is live.
	for _, id := range s.doneOrder[s.doneHead:] {
		if s.jobs[id] == nil {
			t.Fatalf("doneOrder lists evicted job %s", id)
		}
	}
}

// TestResolveBaseAcceptsUppercaseHex: a client echoing a graph hash in
// uppercase (a legitimate spelling of the same hex string) must resolve to
// the same base graph as the lowercase form the server reports.
func TestResolveBaseAcceptsUppercaseHex(t *testing.T) {
	_, body := testGraph(t, 63)
	_, ts := startServer(t, Config{Workers: 1})

	code, m := submit(t, ts, "seed=1&wait=true", body)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	pollDone(t, ts, m["job_id"].(string))
	hash := m["graph_hash"].(string)

	delta := []byte("+0 399\n")
	code, dm := submit(t, ts, "seed=1&wait=true&base="+strings.ToUpper(hash), delta)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("uppercase base rejected: status %d (%v)", code, dm)
	}
	final := pollDone(t, ts, dm["job_id"].(string))
	if final["status"] != "done" {
		t.Fatalf("delta against uppercase base failed: %v", final)
	}
	if d, ok := dm["delta"].(map[string]any); !ok || d["base"] != hash {
		t.Fatalf("delta base = %v, want normalized %s", dm["delta"], hash)
	}
}
