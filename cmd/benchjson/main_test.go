package main

import (
	"encoding/json"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	s, ok := parseBenchLine("BenchmarkServingE2E-8 \t 1\t  95454133 ns/op\t 0.8750 cache_hit_rate\t 20.49 p50_ms")
	if !ok {
		t.Fatal("valid bench line rejected")
	}
	if s.name != "BenchmarkServingE2E" {
		t.Fatalf("name %q (GOMAXPROCS suffix should be stripped)", s.name)
	}
	if s.gomaxprocs != 8 {
		t.Fatalf("gomaxprocs %d, want 8 from the -8 suffix", s.gomaxprocs)
	}
	want := map[string]float64{"ns/op": 95454133, "cache_hit_rate": 0.875, "p50_ms": 20.49}
	for unit, v := range want {
		if s.metrics[unit] != v {
			t.Fatalf("metric %s = %v, want %v", unit, s.metrics[unit], v)
		}
	}

	rejected := []string{
		"",
		"PASS",
		"ok  \tmdbgp\t0.1s",
		"goos: linux",
		"BenchmarkBroken x 1 ns/op",   // non-numeric run count
		"BenchmarkNoMetrics 5",        // no value/unit pairs
		"BenchmarkBadValue 5 x ns/op", // non-numeric value
		"NotABenchmark 5 100 ns/op",   // wrong prefix
	}
	for _, line := range rejected {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q accepted", line)
		}
	}
}

func TestParseBenchLineKeepsNonNumericSuffix(t *testing.T) {
	// A trailing -suffix that is not a number is part of the name.
	s, ok := parseBenchLine("BenchmarkFoo-bar 2 10 ns/op")
	if !ok || s.name != "BenchmarkFoo-bar" || s.gomaxprocs != 0 {
		t.Fatalf("sample %+v ok=%v", s, ok)
	}
}

// TestFoldRepeatedRuns checks that go test -count N output becomes one
// record per benchmark and GOMAXPROCS with per-metric medians, the sample
// count and the min/max spread, in order of first appearance.
func TestFoldRepeatedRuns(t *testing.T) {
	lines := []string{
		"BenchmarkKernels-2 1 300 ns/op 4.0 projection_gbps",
		"BenchmarkPrep-2 1 50 ns/op 1.9 speedup",
		"BenchmarkKernels-2 1 100 ns/op 6.0 projection_gbps",
		"BenchmarkKernels-2 1 200 ns/op 5.0 projection_gbps 7 extra",
		"BenchmarkPrep-2 1 70 ns/op 2.1 speedup",
		"BenchmarkPrep-4 1 40 ns/op 3.0 speedup", // another -cpu value
	}
	var samples []sample
	for _, l := range lines {
		s, ok := parseBenchLine(l)
		if !ok {
			t.Fatalf("line %q rejected", l)
		}
		samples = append(samples, s)
	}
	recs := fold(samples)
	if len(recs) != 3 || recs[0].Name != "BenchmarkKernels" || recs[1].Name != "BenchmarkPrep" ||
		recs[2].Name != "BenchmarkPrep" || recs[2].GOMAXPROCS != 4 || recs[2].Runs != 1 {
		t.Fatalf("records %+v, want Kernels, Prep at 2 and Prep at 4", recs)
	}
	k, p := recs[0], recs[1]
	if k.Runs != 3 || p.Runs != 2 || k.GOMAXPROCS != 2 {
		t.Fatalf("runs %d/%d gomaxprocs %d, want 3/2 and 2", k.Runs, p.Runs, k.GOMAXPROCS)
	}
	checks := []struct {
		rec            Record
		unit           string
		median, lo, hi float64
	}{
		{k, "ns/op", 200, 100, 300},
		{k, "projection_gbps", 5, 4, 6},
		{k, "extra", 7, 7, 7}, // reported by one sample only
		{p, "ns/op", 60, 50, 70},
		{p, "speedup", 2, 1.9, 2.1},
	}
	for _, c := range checks {
		if got := c.rec.Metrics[c.unit]; got != c.median {
			t.Errorf("%s %s median %v, want %v", c.rec.Name, c.unit, got, c.median)
		}
		if got := c.rec.Spread[c.unit]; got != (MinMax{c.lo, c.hi}) {
			t.Errorf("%s %s spread %+v, want [%v, %v]", c.rec.Name, c.unit, got, c.lo, c.hi)
		}
	}

	// The JSON keeps the schema benchgate decodes: name, runs, metrics.
	enc, err := json.Marshal(recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	var back []struct {
		Name    string             `json:"name"`
		Runs    int64              `json:"runs"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(enc, &back); err != nil || back[0].Runs != 3 || back[0].Metrics["ns/op"] != 200 {
		t.Fatalf("round trip %s: %+v %v", enc, back, err)
	}
}
