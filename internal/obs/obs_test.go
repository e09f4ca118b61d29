package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Start("child")
	if c != nil {
		t.Fatalf("nil.Start returned %v, want nil", c)
	}
	s.SetAttr("k", 1)
	s.End()
	if v := s.Snapshot(); v != nil {
		t.Fatalf("nil.Snapshot returned %v, want nil", v)
	}
}

func TestSpanTreeStructure(t *testing.T) {
	root := NewTrace("request")
	root.SetAttr("engine", "gd")
	a := root.Start("ingest")
	a.SetAttr("edges", 42)
	a.End()
	b := root.Start("solve")
	b1 := b.Start("gd")
	b1.SetAttr("final_locality", 0.75)
	b1.End()
	b.End()
	root.End()

	v := root.Snapshot()
	if got := v.CountSpans(); got != 4 {
		t.Fatalf("CountSpans = %d, want 4", got)
	}
	want := "request{engine=gd}[ingest{edges=42} solve[gd{final_locality=0.75}]]"
	if got := v.Structure(); got != want {
		t.Fatalf("Structure = %q, want %q", got, want)
	}
}

func TestStructureExcludesTiming(t *testing.T) {
	mk := func(sleep time.Duration) string {
		root := NewTrace("r")
		c := root.Start("work")
		time.Sleep(sleep)
		c.End()
		root.End()
		return root.Snapshot().Structure()
	}
	if a, b := mk(0), mk(2*time.Millisecond); a != b {
		t.Fatalf("structure differs with timing: %q vs %q", a, b)
	}
}

func TestSnapshotWhileLive(t *testing.T) {
	// The producer stops by count: an unbounded one outruns snapshots that
	// each cost O(children) on a contended CPU, and memory grows without
	// limit.
	const spans = 2000
	root := NewTrace("r")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < spans; i++ {
			c := root.Start("c")
			c.SetAttr("i", i)
			c.End()
		}
	}()
	for i := 0; i < 100; i++ {
		v := root.Snapshot()
		if _, err := json.Marshal(v); err != nil {
			t.Fatalf("marshal live snapshot: %v", err)
		}
	}
	wg.Wait()
	if n := root.Snapshot().CountSpans(); n != spans+1 {
		t.Fatalf("final snapshot has %d spans, want %d", n, spans+1)
	}
}

// TestSpanCapBoundsRunawayProducer: a producer starting spans without end
// leaves the trace at MaxSpans; every refused Start returns the nil no-op
// span and is counted on the root view.
func TestSpanCapBoundsRunawayProducer(t *testing.T) {
	const extra = 500
	root := NewTrace("r")
	child := root.Start("child")
	for i := 0; i < MaxSpans+extra; i++ {
		parent := root
		if i%2 == 1 {
			parent = child
		}
		c := parent.Start("c")
		c.SetAttr("i", i)
		c.End()
	}
	if c := root.Start("late"); c != nil || c.Start("grandchild") != nil {
		t.Fatal("Start past the cap returned a live span")
	}
	v := root.Snapshot()
	if n := v.CountSpans(); n != MaxSpans {
		t.Fatalf("trace holds %d spans, want the cap %d", n, MaxSpans)
	}
	// Every Start past the cap was refused: child, the loop and "late" asked
	// for MaxSpans+extra+2 spans beyond the root, and MaxSpans-1 fit. The nil
	// span's own Start is a no-op and counts nothing.
	if want := extra + 3; v.DroppedSpans != want {
		t.Fatalf("dropped_spans = %d, want %d", v.DroppedSpans, want)
	}
	if d := child.Snapshot().DroppedSpans; d != 0 {
		t.Fatalf("non-root view reports dropped_spans = %d, want 0", d)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"dropped_spans":`) {
		t.Fatal("root JSON lacks dropped_spans")
	}
	if b, _ := json.Marshal(NewTrace("ok").Snapshot()); strings.Contains(string(b), "dropped_spans") {
		t.Fatal("an untruncated trace should omit dropped_spans")
	}
}

func TestEndIdempotent(t *testing.T) {
	root := NewTrace("r")
	root.End()
	first := root.Snapshot().DurUS
	time.Sleep(2 * time.Millisecond)
	root.End()
	if second := root.Snapshot().DurUS; second != first {
		t.Fatalf("second End changed duration: %d -> %d", first, second)
	}
}

func TestContextRoundTrip(t *testing.T) {
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	s := NewTrace("r")
	ctx := NewContext(context.Background(), s)
	if got := FromContext(ctx); got != s {
		t.Fatalf("FromContext = %v, want %v", got, s)
	}
}

func TestSpanViewJSONDeterministic(t *testing.T) {
	mk := func() []byte {
		root := NewTrace("r")
		root.SetAttr("b", 2)
		root.SetAttr("a", 1)
		root.SetAttr("c", 0.5)
		root.End()
		v := root.Snapshot()
		v.StartUS, v.DurUS = 0, 0 // mask the only nondeterministic fields
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := mk(), mk(); string(a) != string(b) {
		t.Fatalf("JSON differs across runs: %s vs %s", a, b)
	}
}

func TestWalkAndFloat(t *testing.T) {
	root := NewTrace("r")
	g := root.Start("gd")
	g.SetAttr("iters", 40)
	g.SetAttr("final_locality", 0.8125)
	g.End()
	root.End()
	v := root.Snapshot()
	var gd *SpanView
	v.Walk(func(s *SpanView) {
		if s.Name == "gd" {
			gd = s
		}
	})
	if gd == nil {
		t.Fatal("gd span not found")
	}
	if f, ok := gd.Float("iters"); !ok || f != 40 {
		t.Fatalf("Float(iters) = %v,%v", f, ok)
	}
	if f, ok := gd.Float("final_locality"); !ok || f != 0.8125 {
		t.Fatalf("Float(final_locality) = %v,%v", f, ok)
	}
	if _, ok := gd.Float("missing"); ok {
		t.Fatal("Float(missing) reported ok")
	}

	// After a JSON round trip numbers come back as float64; Float must
	// still read them.
	b, _ := json.Marshal(v)
	var back SpanView
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if f, ok := back.Children[0].Float("iters"); !ok || f != 40 {
		t.Fatalf("Float(iters) after round trip = %v,%v", f, ok)
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	h.Observe(5 * time.Millisecond)   // bucket 0
	h.Observe(50 * time.Millisecond)  // bucket 1
	h.Observe(500 * time.Millisecond) // bucket 2
	h.Observe(5 * time.Second)        // +Inf
	h.Observe(10 * time.Millisecond)  // exactly on bound -> le=0.01 bucket

	s := h.Snapshot()
	wantCounts := []int64{2, 1, 1, 1}
	for i, w := range wantCounts {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.SumSec < 5.5 || s.SumSec > 5.6 {
		t.Fatalf("SumSec = %g, want ~5.565", s.SumSec)
	}
}

func TestWritePromHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1})
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(2 * time.Second)

	var b strings.Builder
	b.WriteString("# HELP d_seconds test histogram\n# TYPE d_seconds histogram\n")
	WritePromHistogram(&b, "d_seconds", `engine="gd"`, h.Snapshot())
	out := b.String()

	for _, want := range []string{
		"d_seconds_bucket{engine=\"gd\",le=\"0.01\"} 1\n",
		"d_seconds_bucket{engine=\"gd\",le=\"0.1\"} 2\n",
		"d_seconds_bucket{engine=\"gd\",le=\"+Inf\"} 3\n",
		"d_seconds_count{engine=\"gd\"} 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if errs := LintExposition(out); len(errs) > 0 {
		t.Fatalf("histogram exposition fails lint: %v", errs)
	}

	// Unlabeled variant must also pass lint.
	var ub strings.Builder
	ub.WriteString("# HELP u_seconds test\n# TYPE u_seconds histogram\n")
	WritePromHistogram(&ub, "u_seconds", "", h.Snapshot())
	if errs := LintExposition(ub.String()); len(errs) > 0 {
		t.Fatalf("unlabeled exposition fails lint: %v", errs)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
}
