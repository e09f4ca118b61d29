package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// toyConfig runs a workload at toy size for a fraction of a second.
func toyConfig(t *testing.T) runConfig {
	return runConfig{seed: DefaultSeed, seconds: 0.3, sc: toyScale, out: t.TempDir(), log: io.Discard}
}

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkFile checks that the metrics and workloads the
// harness prints are exactly those BENCHMARK.json declares, with the same
// units.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range declared {
			if d.Name != defs[i].name || d.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]", kind, i, d.Name, d.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
}

// TestToyRuns runs every workload, timed and traced, at toy size and checks
// that each run is correct and prints every metric with its unit.
func TestToyRuns(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(w.name, traced, toyConfig(t))
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%t: metric %s = %+v, want a finite value in %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "latency_p50_ms", "throughput_ops_s", "locality", "sim_pagerank_s", "success_frac"} {
					if res.Metrics[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedAssignmentFails damages one returned assignment in each
// workload and checks that the run reports it as incorrect.
func TestCorruptedAssignmentFails(t *testing.T) {
	for _, w := range workloads {
		cfg := toyConfig(t)
		cfg.corrupt = true
		res, err := run(w.name, false, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted assignment passed the checks (correct=%t failed=%d)", w.name, res.Correct, res.Failed)
		}
	}
}

// TestAttributionAddsUp checks the self-time split on overlapping
// concurrent children: layer self times plus unattributed time equal the
// operation's wall time.
func TestAttributionAddsUp(t *testing.T) {
	ns := func(x int) int64 { return int64(x) * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: ns(0), End: ns(100)},
		{ID: 1, Parent: 0, Name: "core.partitionk", Start: ns(10), End: ns(90)},
		{ID: 2, Parent: 1, Name: "core.bisect", Start: ns(10), End: ns(50)},
		{ID: 3, Parent: 1, Name: "core.bisect", Start: ns(55), End: ns(85)},
		{ID: 4, Parent: 1, Name: "core.bisect", Start: ns(60), End: ns(80)},
		{ID: 5, Parent: 0, Name: "partition.score", Start: ns(90), End: ns(95)},
	}
	at := attribute(spans)
	if at.wall != 100*time.Millisecond || at.sum() != at.wall {
		t.Fatalf("wall %v, sum %v", at.wall, at.sum())
	}
	if at.unattributed != 15*time.Millisecond || at.self["core"] != 80*time.Millisecond || at.self["partition"] != 5*time.Millisecond {
		t.Fatalf("unattributed %v, self %v", at.unattributed, at.self)
	}
}
