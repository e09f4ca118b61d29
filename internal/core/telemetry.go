package core

import (
	"fmt"
	"strings"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/obs"
	"mdbgp/internal/vecmath"
)

// convSampler records the expected-locality trajectory of one GD run for the
// span tree, cheaply enough to leave on in production: the <2% trace-overhead
// budget rules out touching the arc arrays per sample (the naive
// ExpectedLocalityWeighted pass is one extra SpMV each), so samples are
// computed in O(n) from state the loop already has.
//
// At sample time the loop's active-set gradient holds the exact row sums
// (A_w·z)_u of the FREE rows only, compacted alongside the free list, so the
// free half of zᵀA_wz is Σ_{u free} z_u·grad_u, one pass over vectors the
// norm reduction reads anyway. Fixed rows are never summed, and recovering
// their true row sums would cost arc-array work the budget does not allow;
// instead each vertex contributes x_u·(A_w·z)_u frozen at the moment it
// locks (its gradient entry is still exact that iteration), accumulated
// into qLocked as an O(1) side effect of the fixing loop:
//
//	zᵀA_wz ≈ Σ_{u free} z_u·grad_u + Σ_{u fixed} x_u·(A_w·z(t_u))_u
//
// The trajectory is therefore an estimator: exact until the first vertex
// locks (and for the whole run when vertex fixing is off), and a slight
// underestimate late in the run, since a locked vertex's neighbors keep
// aligning with it after its contribution froze. The headline
// final_locality attribute is NOT taken from the trajectory: annotate
// computes it with one exact quadratic-form pass over the arcs, paid once
// per GD run rather than once per sample. iters_to_90 is resolved against
// the trajectory's own final sample, so it is self-consistent with the
// curve it summarizes.
//
// Everything here reduces through the pool's fixed-chunk reductions and a
// serially-ordered fixing loop, so the recorded values are bit-identical at
// any worker count, matching the structural determinism of the span tree.
type convSampler struct {
	wg     *coarsen.Graph
	pool   *vecmath.Pool
	w      float64 // total edge weight W (each edge once)
	stride int
	// qLocked = Σ_{u fixed} x_u·(A_w·z(t_u))_u, frozen at each lock.
	qLocked float64
	iters   []int
	locs    []float64
}

// convSamples caps the trajectory length; the stride spreads them evenly
// over the iteration budget.
const convSamples = 8

func newConvSampler(wg *coarsen.Graph, iterations int, pool *vecmath.Pool) *convSampler {
	w := 0.0
	if wg.EW == nil {
		w = float64(len(wg.Adj)) / 2
	} else {
		w = pool.ReduceSum(len(wg.EW), func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += wg.EW[i]
			}
			return s
		}) / 2
	}
	stride := (iterations + convSamples - 1) / convSamples
	if stride < 1 {
		stride = 1
	}
	return &convSampler{wg: wg, pool: pool, w: w, stride: stride}
}

// onFix freezes a just-fixed vertex's locality contribution: xi is its
// snapped ±1 value and gi its gradient entry, still the exact row sum
// (A_w·z)_i this iteration because the vertex was free during the SpMV.
func (c *convSampler) onFix(gi, xi float64) {
	c.qLocked += xi * gi
}

// wantSample reports whether iteration t falls on the sampling stride. The
// caller then folds Σ_{u free} z_u·grad_u into the gradient-norm reduction
// it performs anyway and hands the sum to record — fusing the two passes keeps
// a sample's marginal cost to the one extra z read.
func (c *convSampler) wantSample(t int) bool {
	return t%c.stride == 0
}

// record appends the sample for iteration t. freeQuad must be
// Σ_{u free} z_u·grad_u with grad_u = (A_w·z)_u (computed before any
// fallback overwrites it).
func (c *convSampler) record(t int, freeQuad float64) {
	if c.w == 0 {
		c.iters = append(c.iters, t)
		c.locs = append(c.locs, 1)
		return
	}
	quad := c.qLocked + freeQuad
	c.iters = append(c.iters, t)
	c.locs = append(c.locs, (quad/4+c.w/2)/c.w)
}

// finalLocality computes the exact EL(x) = (xᵀA_wx/4 + W/2)/W with one
// parallel pass over the arcs. Each arc is visited once per endpoint, so the
// row-major sum is exactly xᵀA_wx.
func (c *convSampler) finalLocality(x []float64) float64 {
	if c.w == 0 {
		return 1
	}
	wg := c.wg
	quad := c.pool.ReduceSum(wg.N(), func(lo, hi int) float64 {
		s := 0.0
		for u := lo; u < hi; u++ {
			row := wg.Adj[wg.Offsets[u]:wg.Offsets[u+1]]
			ru := 0.0
			if wg.EW == nil {
				for _, v := range row {
					ru += x[v]
				}
			} else {
				wrow := wg.EW[wg.Offsets[u]:wg.Offsets[u+1]]
				for j, v := range row {
					ru += wrow[j] * x[v]
				}
			}
			s += x[u] * ru
		}
		return s
	})
	return (quad/4 + c.w/2) / c.w
}

// annotate writes the convergence telemetry onto the gd span: the sampled
// locality trajectory, the exact final locality of x, and the first sampled
// iteration reaching 90% of the trajectory's final sample (the headline
// iterations-to-90% number).
func (c *convSampler) annotate(sp *obs.Span, x []float64) {
	if len(c.locs) == 0 {
		return
	}
	last := c.locs[len(c.locs)-1]
	to90 := c.iters[len(c.iters)-1]
	for i, l := range c.locs {
		if l >= 0.9*last {
			to90 = c.iters[i]
			break
		}
	}
	var b strings.Builder
	for i := range c.locs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.6f", c.iters[i], c.locs[i])
	}
	sp.SetAttr("final_locality", c.finalLocality(x))
	sp.SetAttr("iters_to_90", to90)
	sp.SetAttr("trajectory", b.String())
}
