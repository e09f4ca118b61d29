package core

// Coverage for the degree-ordered SpMV override: a reordered solve must be
// byte-identical to the plain path.

import (
	"testing"

	"mdbgp/internal/gen"
	"mdbgp/internal/reorder"
)

func TestReorderByteIdenticalToPlain(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 9000, Communities: 3, AvgDegree: 12, InFraction: 0.8, Seed: 7})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 11
	opt.Workers = 1
	ref, err := Bisect(g, ws, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Reorder = reorder.Degree
	for _, w := range workerCounts {
		opt.Workers = w
		res, err := Bisect(g, ws, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.X {
			if res.X[i] != ref.X[i] {
				t.Fatalf("workers=%d: X[%d] = %v, want %v (not byte-identical)",
					w, i, res.X[i], ref.X[i])
			}
		}
		assertSameParts(t, "reorder degree", ref.Assignment, res.Assignment)
		if res.Iterations != ref.Iterations || res.RepairMoves != ref.RepairMoves {
			t.Fatalf("workers=%d: iterations/moves %d/%d, want %d/%d",
				w, res.Iterations, res.RepairMoves, ref.Iterations, ref.RepairMoves)
		}
	}
}

func TestReorderKWayByteIdentical(t *testing.T) {
	g, _ := gen.SBM(gen.SBMConfig{N: 8000, Communities: 5, AvgDegree: 10, InFraction: 0.8, Seed: 19})
	ws := vertexEdgeWeights(g)
	opt := DefaultOptions()
	opt.Seed = 23
	ref, err := PartitionK(g, ws, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Reorder = reorder.Degree
	res, err := PartitionK(g, ws, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertSameParts(t, "kway reorder", ref, res)
}
