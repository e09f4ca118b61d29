package mdbgp

import "testing"

// Property tests for the Reorder override.
//
// Reorder is a byte-identical kernel override with a hard contract: for any
// engine and any worker count, a degree-ordered solve is byte-identical to
// the unreordered run (the layout keeps per-row arc order, so per-coordinate
// floating-point sums associate exactly as before, and results scatter back
// through the inverse permutation).

// TestReorderByteIdentityAcrossEngines: every registered engine × workers
// {1, 2, 8} under Reorder "degree" produces the exact partition of the
// unreordered single-worker run. Engines that never consult Reorder pass
// trivially; the gd-core engines are the ones under test.
func TestReorderByteIdentityAcrossEngines(t *testing.T) {
	g := goldenGraph(t)
	for _, engine := range EngineNames() {
		opts := Options{Engine: engine, K: 4, Seed: 42, Iterations: 30}
		base, err := Partition(g, opts)
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		for _, p := range []int{1, 2, 8} {
			o := opts
			o.Reorder = "degree"
			o.Parallelism = p
			res, err := Partition(g, o)
			if err != nil {
				t.Fatalf("engine %s workers %d: %v", engine, p, err)
			}
			for v := range base.Assignment.Parts {
				if res.Assignment.Parts[v] != base.Assignment.Parts[v] {
					t.Fatalf("engine %s workers %d: partition diverged at vertex %d — reordering must be invisible in the output",
						engine, p, v)
				}
			}
		}
	}
}

// TestReorderRejectsUnknownOrdering: Partition fails fast on any ordering
// but the default and "degree" — including the removed BFS and RCM
// orderings — rather than silently running unreordered.
func TestReorderRejectsUnknownOrdering(t *testing.T) {
	g, _ := testGraph()
	for _, ord := range []string{"hilbert", "bfs", "rcm"} {
		if _, err := Partition(g, Options{K: 2, Reorder: ord}); err == nil {
			t.Fatalf("ordering %q accepted", ord)
		}
	}
	for _, ord := range []string{"", "none", "degree"} {
		if _, err := Partition(g, Options{K: 2, Reorder: ord}); err != nil {
			t.Fatalf("ordering %q rejected: %v", ord, err)
		}
	}
}
