package mdbgp

import "testing"

// Property tests for the vertex-reordering knob.
//
// Reorder is a kernel-layout detail with a hard contract: for any engine,
// any ordering and any worker count, the partition is byte-identical to the
// unreordered run (the layout keeps per-row arc order, so per-coordinate
// floating-point sums associate exactly as before, and results scatter back
// through the inverse permutation).

// TestReorderByteIdentityAcrossEngines: every registered engine × every
// ordering × workers {1, 2, 8} produces the exact partition of the
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
		for _, ord := range ReorderNames() {
			for _, p := range []int{1, 2, 8} {
				o := opts
				o.Reorder = ord
				o.Parallelism = p
				res, err := Partition(g, o)
				if err != nil {
					t.Fatalf("engine %s reorder %s workers %d: %v", engine, ord, p, err)
				}
				for v := range base.Assignment.Parts {
					if res.Assignment.Parts[v] != base.Assignment.Parts[v] {
						t.Fatalf("engine %s reorder %s workers %d: partition diverged at vertex %d — reordering must be invisible in the output",
							engine, ord, p, v)
					}
				}
			}
		}
	}
}

// TestReorderRejectsUnknownOrdering: the validation path fails fast at every
// entry point rather than silently running unreordered.
func TestReorderRejectsUnknownOrdering(t *testing.T) {
	g, _ := testGraph()
	if _, err := Partition(g, Options{K: 2, Reorder: "hilbert"}); err == nil {
		t.Fatal("unknown ordering accepted")
	}
	if err := ValidateReorder("hilbert"); err == nil {
		t.Fatal("ValidateReorder accepted an unknown ordering")
	}
	for _, ord := range ReorderNames() {
		if err := ValidateReorder(ord); err != nil {
			t.Fatalf("listed ordering %q rejected: %v", ord, err)
		}
	}
}

// TestFingerprintReorderPairwiseDistinct: orderings are part of the request
// fingerprint, so no two orderings may collide on a cache key — a collision would serve one ordering's cached
// result for another's request.
func TestFingerprintReorderPairwiseDistinct(t *testing.T) {
	base := Options{K: 4, Seed: 42}
	var fps []string
	var labels []string
	for _, ord := range ReorderNames() {
		o := base
		o.Reorder = ord
		fps = append(fps, o.Fingerprint())
		labels = append(labels, "reorder="+ord)
	}
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			if fps[i] == fps[j] {
				t.Fatalf("fingerprint collision between %s and %s", labels[i], labels[j])
			}
		}
	}
}
