package vecmath

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

var poolSizes = []int{1, 2, 3, 4, 7, 16}

func TestPoolForCoversEveryIndexOnce(t *testing.T) {
	for _, w := range poolSizes {
		n := 3*ChunkSize + 17
		hits := make([]int32, n)
		NewPool(w).For(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("workers=%d: bad range [%d, %d)", w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, h)
			}
		}
	}
}

func TestPoolForEmptyAndNil(t *testing.T) {
	called := false
	NewPool(4).For(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("For(0) invoked fn")
	}
	var nilPool *Pool
	sum := 0
	nilPool.For(10, func(lo, hi int) { sum += hi - lo })
	if sum != 10 {
		t.Fatalf("nil pool covered %d of 10 indices", sum)
	}
	if got := nilPool.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
}

// The reduction contract: bit-identical sums for every worker count,
// including the nil/serial pool, because chunking depends only on n.
func TestPoolReduceSumDeterministicAcrossWorkers(t *testing.T) {
	n := 5*ChunkSize + 123
	rng := rand.New(rand.NewSource(7))
	a := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64() * 1e3
	}
	sum := func(p *Pool) float64 {
		return p.ReduceSum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a[i]
			}
			return s
		})
	}
	var nilPool *Pool
	want := sum(nilPool)
	for _, w := range poolSizes {
		if got := sum(NewPool(w)); got != want {
			t.Fatalf("workers=%d: sum %v != serial %v", w, got, want)
		}
	}
}

func TestPoolReduceSum2MatchesPairOfReduceSums(t *testing.T) {
	n := 2*ChunkSize + 9
	rng := rand.New(rand.NewSource(8))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	for _, w := range poolSizes {
		p := NewPool(w)
		ga, gb := p.ReduceSum2(n, func(lo, hi int) (float64, float64) {
			sa, sb := 0.0, 0.0
			for i := lo; i < hi; i++ {
				sa += a[i]
				sb += b[i]
			}
			return sa, sb
		})
		wa := p.ReduceSum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a[i]
			}
			return s
		})
		wb := p.ReduceSum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += b[i]
			}
			return s
		})
		if ga != wa || gb != wb {
			t.Fatalf("workers=%d: ReduceSum2 (%v, %v) != (%v, %v)", w, ga, gb, wa, wb)
		}
	}
}

func TestSpMVPoolMatchesSerialBitForBit(t *testing.T) {
	g := randomGraph(3, 2*ChunkSize+100, 8*ChunkSize)
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, g.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, g.N())
	SpMV(g, x, want)
	for _, w := range poolSizes {
		got := make([]float64, g.N())
		SpMVPool(g, x, got, NewPool(w))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: SpMVPool[%d] = %v, want %v", w, v, got[v], want[v])
			}
		}
	}
}

func TestSpMVMaskedPoolMatchesSerial(t *testing.T) {
	g := randomGraph(5, ChunkSize+50, 4*ChunkSize)
	rng := rand.New(rand.NewSource(6))
	n := g.N()
	x := make([]float64, n)
	fixed := make([]bool, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		fixed[i] = rng.Intn(3) == 0
	}
	want := make([]float64, n)
	SpMVMasked(g, x, want, fixed)
	for _, w := range poolSizes {
		got := make([]float64, n)
		SpMVMaskedPool(g, x, got, fixed, NewPool(w))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d: masked SpMV differs at %d", w, v)
			}
		}
	}
}

func TestPooledElementwiseKernels(t *testing.T) {
	n := 2*ChunkSize + 31
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * 2
		y[i] = rng.NormFloat64()
	}
	wantAXPY := make([]float64, n)
	AXPY(wantAXPY, x, 0.7, y)
	wantScale := Copy(x)
	Scale(wantScale, -1.3)
	wantClamp := Copy(x)
	Clamp(wantClamp)
	for _, w := range poolSizes {
		p := NewPool(w)
		got := make([]float64, n)
		AXPYPool(got, x, 0.7, y, p)
		for i := range got {
			if got[i] != wantAXPY[i] {
				t.Fatalf("workers=%d: AXPYPool differs at %d", w, i)
			}
		}
		got = Copy(x)
		ScalePool(got, -1.3, p)
		for i := range got {
			if got[i] != wantScale[i] {
				t.Fatalf("workers=%d: ScalePool differs at %d", w, i)
			}
		}
		got = Copy(x)
		ClampPool(got, p)
		for i := range got {
			if got[i] != wantClamp[i] {
				t.Fatalf("workers=%d: ClampPool differs at %d", w, i)
			}
		}
	}
}

func TestDotAndNormPoolDeterministicAcrossWorkers(t *testing.T) {
	n := 4*ChunkSize + 77
	rng := rand.New(rand.NewSource(10))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
	}
	var nilPool *Pool
	wantDot := DotPool(a, b, nilPool)
	wantNorm := Norm2Pool(a, nilPool)
	for _, w := range poolSizes {
		p := NewPool(w)
		if got := DotPool(a, b, p); got != wantDot {
			t.Fatalf("workers=%d: DotPool %v != %v", w, got, wantDot)
		}
		if got := Norm2Pool(a, p); got != wantNorm {
			t.Fatalf("workers=%d: Norm2Pool %v != %v", w, got, wantNorm)
		}
	}
}

func TestSpMVParallelStillMatchesSerial(t *testing.T) {
	g := randomGraph(11, 5000, 20000)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	want := make([]float64, g.N())
	SpMV(g, x, want)
	got := make([]float64, g.N())
	SpMVParallel(g, x, got)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("SpMVParallel differs at %d", v)
		}
	}
}
