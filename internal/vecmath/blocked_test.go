package vecmath

import (
	"math/rand"
	"testing"
)

// blockedCase builds a random weighted CSR plus mask and input vector.
func blockedCase(seed int64, n, m int) (offsets []int64, adj []int32, ew []float64, x []float64, fixed []bool) {
	g := randomGraph(seed, n, m)
	offsets, adj = g.CSR()
	rng := rand.New(rand.NewSource(seed + 1))
	ew = make([]float64, len(adj))
	for i := range ew {
		ew[i] = rng.Float64()*3 - 1
	}
	x = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	fixed = make([]bool, n)
	for i := range fixed {
		fixed[i] = rng.Intn(4) == 0
	}
	return
}

func TestSpMVBlockedMatchesPlainBitwise(t *testing.T) {
	cases := []struct {
		name string
		n, m int
	}{
		{"tiny", 5, 6},
		{"small", 300, 900},
		{"multi-chunk", 9000, 40000},
		{"sparse", 5000, 1500},
		{"non-multiple-of-4", 4099, 16000},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			offsets, adj, ew, x, fixed := blockedCase(int64(tc.n+workers), tc.n, tc.m)
			p := NewPool(workers)
			for _, weights := range []string{"unit", "weighted"} {
				w := ew
				if weights == "unit" {
					w = nil
				}
				for _, mask := range []string{"nil", "masked"} {
					f := fixed
					if mask == "nil" {
						f = nil
					}
					want := make([]float64, tc.n)
					got := make([]float64, tc.n)
					for i := range want {
						want[i] = -99.5 // masked rows must keep prior dst
						got[i] = -99.5
					}
					SpMVWeightedMaskedPool(offsets, adj, w, x, want, f, p)
					SpMVBlockedPool(offsets, adj, w, x, got, f, p)
					for i := range want {
						if want[i] != got[i] {
							t.Fatalf("%s workers=%d %s/%s: dst[%d]=%v want %v",
								tc.name, workers, weights, mask, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

func TestSpMVBlockedAllFixed(t *testing.T) {
	offsets, adj, ew, x, _ := blockedCase(7, 200, 600)
	fixed := make([]bool, 200)
	for i := range fixed {
		fixed[i] = true
	}
	dst := make([]float64, 200)
	for i := range dst {
		dst[i] = float64(i)
	}
	SpMVBlockedPool(offsets, adj, ew, x, dst, fixed, NewPool(4))
	for i := range dst {
		if dst[i] != float64(i) {
			t.Fatalf("fixed row %d overwritten: %v", i, dst[i])
		}
	}
}

func TestSpMVBlockedEmptyGraph(t *testing.T) {
	SpMVBlockedPool([]int64{0}, nil, nil, nil, nil, nil, NewPool(2))
	// n > 0 with zero arcs: live rows must still be zeroed.
	offsets := []int64{0, 0, 0, 0}
	dst := []float64{1, 2, 3}
	SpMVBlockedPool(offsets, nil, nil, make([]float64, 3), dst, nil, nil)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("arcless row %d: got %v, want 0", i, v)
		}
	}
}

func TestSpMVBlockedRejectsMismatchedLengths(t *testing.T) {
	offsets := []int64{0, 1, 2}
	adj := []int32{1, 0}
	cases := []struct {
		name string
		fn   func()
	}{
		{"short x", func() { SpMVBlockedPool(offsets, adj, nil, make([]float64, 1), make([]float64, 2), nil, nil) }},
		{"short dst", func() { SpMVBlockedPool(offsets, adj, nil, make([]float64, 2), make([]float64, 1), nil, nil) }},
		{"short adj", func() { SpMVBlockedPool(offsets, adj[:1], nil, make([]float64, 2), make([]float64, 2), nil, nil) }},
		{"short ew", func() { SpMVBlockedPool(offsets, adj, []float64{1}, make([]float64, 2), make([]float64, 2), nil, nil) }},
		{"short mask", func() { SpMVBlockedPool(offsets, adj, nil, make([]float64, 2), make([]float64, 2), []bool{false}, nil) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestSpMVRowsMatchesMaskedBitwise: the active-set kernel's compacted output
// must equal the masked kernel's output at every listed (free) row, bit for
// bit, for unit and weighted arcs at any worker count.
func TestSpMVRowsMatchesMaskedBitwise(t *testing.T) {
	for _, n := range []int{5, 4099, 9000} {
		offsets, adj, ew, x, fixed := blockedCase(int64(n), n, 4*n)
		var rows []int32
		for v, f := range fixed {
			if !f {
				rows = append(rows, int32(v))
			}
		}
		for _, w := range [][]float64{nil, ew} {
			want := make([]float64, n)
			SpMVWeightedMaskedPool(offsets, adj, w, x, want, fixed, nil)
			for _, workers := range []int{1, 2, 8} {
				got := make([]float64, len(rows))
				SpMVRowsPool(offsets, adj, w, x, rows, got, NewPool(workers))
				for k, v := range rows {
					if got[k] != want[v] {
						t.Fatalf("n=%d weighted=%t workers=%d: row %d = %v, want %v",
							n, w != nil, workers, v, got[k], want[v])
					}
				}
			}
		}
	}
	// An arcless graph yields zero row sums; a short x is rejected.
	dst := []float64{7, 7}
	SpMVRowsPool([]int64{0, 0, 0}, nil, nil, []float64{1, 2}, []int32{0, 1}, dst, nil)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("arcless rows = %v, want zeros", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	SpMVRowsPool([]int64{0, 1, 2}, []int32{1, 0}, nil, []float64{1}, []int32{0}, dst, nil)
}
