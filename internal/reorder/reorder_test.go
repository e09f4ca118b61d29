package reorder

import (
	"math/rand"
	"testing"

	"mdbgp/internal/graph"
	"mdbgp/internal/vecmath"
)

func randomGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// bandGraph builds a path-plus-band graph under a deterministically shuffled
// labeling, so the ingest order has terrible locality.
func bandGraph(seed int64, n, width int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(n)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for d := 1; d <= width; d++ {
			if i+d < n {
				b.AddEdge(label[i], label[i+d])
			}
		}
	}
	return b.Build()
}

func TestParseRoundTrip(t *testing.T) {
	for _, name := range []string{"none", "degree"} {
		m, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if m.String() != name {
			t.Fatalf("Parse(%q).String() = %q", name, m.String())
		}
	}
	if m, err := Parse(""); err != nil || m != None {
		t.Fatalf("Parse(\"\") = %v, %v; want None", m, err)
	}
	for _, name := range []string{"hilbert", "bfs", "rcm"} {
		if _, err := Parse(name); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", name)
		}
	}
}

func TestPermutationBijective(t *testing.T) {
	for _, m := range []Method{None, Degree} {
		for _, n := range []int{0, 1, 57, 2000} {
			g := randomGraph(int64(n)+int64(m)*1000, max(n, 1), 3*n)
			if n == 0 {
				g = graph.NewBuilder(0).Build()
			}
			offsets, _ := g.CSR()
			perm, inv := Permutation(offsets, m)
			if len(perm) != n || len(inv) != n {
				t.Fatalf("%v n=%d: lengths %d/%d", m, n, len(perm), len(inv))
			}
			seen := make([]bool, n)
			for nv, ov := range perm {
				if ov < 0 || int(ov) >= n || seen[ov] {
					t.Fatalf("%v n=%d: perm[%d]=%d not a bijection", m, n, nv, ov)
				}
				seen[ov] = true
				if inv[ov] != int32(nv) {
					t.Fatalf("%v n=%d: inv[perm[%d]] = %d", m, n, nv, inv[ov])
				}
			}
		}
	}
}

func TestPermutationDeterministic(t *testing.T) {
	g := randomGraph(11, 3000, 12000)
	offsets, _ := g.CSR()
	p1, _ := Permutation(offsets, Degree)
	p2, _ := Permutation(offsets, Degree)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("permutation not deterministic at %d", i)
		}
	}
}

func TestDegreeOrdering(t *testing.T) {
	g := randomGraph(5, 500, 3000)
	offsets, _ := g.CSR()
	perm, _ := Permutation(offsets, Degree)
	deg := func(v int32) int64 { return offsets[v+1] - offsets[v] }
	for i := 1; i < len(perm); i++ {
		da, db := deg(perm[i-1]), deg(perm[i])
		if da < db || (da == db && perm[i-1] > perm[i]) {
			t.Fatalf("degree order violated at %d: (%d,%d) then (%d,%d)",
				i, perm[i-1], da, perm[i], db)
		}
	}
}

func TestLayoutSpMVBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", randomGraph(31, 7000, 30000)},
		{"band", bandGraph(37, 5000, 3)},
		{"tiny", randomGraph(41, 3, 3)},
		{"edgeless", graph.NewBuilder(10).Build()},
	}
	for _, tc := range cases {
		offsets, adj := tc.g.CSR()
		n := tc.g.N()
		rng := rand.New(rand.NewSource(43))
		ew := make([]float64, len(adj))
		for i := range ew {
			ew[i] = rng.Float64()*2 - 0.5
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fixed := make([]bool, n)
		for i := range fixed {
			fixed[i] = rng.Intn(5) == 0
		}
		for _, m := range []Method{None, Degree} {
			for _, weights := range []string{"unit", "weighted"} {
				w := ew
				if weights == "unit" {
					w = nil
				}
				l := NewLayout(offsets, adj, w, m)
				for _, mask := range []string{"nil", "masked"} {
					f := fixed
					if mask == "nil" {
						f = nil
					}
					for _, workers := range []int{1, 2, 8} {
						p := vecmath.NewPool(workers)
						want := make([]float64, n)
						got := make([]float64, n)
						for i := range want {
							want[i] = 7.25
							got[i] = 7.25
						}
						vecmath.SpMVWeightedMaskedPool(offsets, adj, w, x, want, f, p)
						l.SpMVMasked(x, got, f, p)
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("%s %v %s/%s workers=%d: dst[%d]=%v want %v",
									tc.name, m, weights, mask, workers, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}
