package vecmath

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ChunkSize is the fixed granularity of every parallel loop. Chunk
// boundaries depend only on the problem size — never on the worker count —
// and reductions combine per-chunk partial sums in chunk order, so a Pool
// produces bit-identical floating point results for any level of
// parallelism (including the serial nil pool). This is what keeps GD runs
// reproducible for a fixed seed regardless of -p. Concurrent calls of a
// For function never share a chunk, so per-chunk state indexed by
// i/ChunkSize needs no locking.
const ChunkSize = 4096

// Pool runs chunked data-parallel loops on up to Workers() goroutines.
// A nil *Pool is valid and runs everything on the calling goroutine with
// the same chunk-ordered reduction as the parallel paths. Pools are
// stateless and safe for concurrent use; goroutines are spawned per loop,
// which is cheap next to the O(|E|) kernels they execute.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given concurrency; workers <= 0 selects
// GOMAXPROCS.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the resolved worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

func numChunks(n int) int { return (n + ChunkSize - 1) / ChunkSize }

func chunkBounds(c, n int) (int, int) {
	lo := c * ChunkSize
	hi := lo + ChunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// run executes fn(c) for every chunk index in [0, chunks). Workers pull
// chunk indices from a shared counter, so scheduling is dynamic but the
// work attached to each index is fixed.
func (p *Pool) run(chunks int, fn func(c int)) {
	workers := p.Workers()
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		for c := 0; c < chunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				fn(c)
			}
		}()
	}
	wg.Wait()
}

// For runs fn over [0, n) split into contiguous chunks. fn must only write
// indices within its [lo, hi) range.
func (p *Pool) For(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.Workers() <= 1 || n <= ChunkSize {
		fn(0, n)
		return
	}
	p.run(numChunks(n), func(c int) {
		lo, hi := chunkBounds(c, n)
		fn(lo, hi)
	})
}

// ReduceSum evaluates fn on every chunk of [0, n) and returns the sum of
// the per-chunk results, added in chunk order. Because the chunking is
// fixed, the float64 result is bit-identical for any worker count.
func (p *Pool) ReduceSum(n int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	chunks := numChunks(n)
	if chunks == 1 {
		return fn(0, n)
	}
	partial := make([]float64, chunks)
	p.run(chunks, func(c int) {
		lo, hi := chunkBounds(c, n)
		partial[c] = fn(lo, hi)
	})
	s := 0.0
	for _, v := range partial {
		s += v
	}
	return s
}

// ReduceSum2 is ReduceSum for two simultaneous accumulators (e.g. ‖w‖² and
// ⟨w, x⟩ of a hyperplane projection computed in one pass).
func (p *Pool) ReduceSum2(n int, fn func(lo, hi int) (float64, float64)) (float64, float64) {
	if n <= 0 {
		return 0, 0
	}
	chunks := numChunks(n)
	if chunks == 1 {
		return fn(0, n)
	}
	partial := make([][2]float64, chunks)
	p.run(chunks, func(c int) {
		lo, hi := chunkBounds(c, n)
		a, b := fn(lo, hi)
		partial[c] = [2]float64{a, b}
	})
	var sa, sb float64
	for _, v := range partial {
		sa += v[0]
		sb += v[1]
	}
	return sa, sb
}
