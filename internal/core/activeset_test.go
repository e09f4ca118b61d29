package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mdbgp/internal/coarsen"
	"mdbgp/internal/gen"
	"mdbgp/internal/graph"
	"mdbgp/internal/obs"
	"mdbgp/internal/project"
	"mdbgp/internal/vecmath"
	"mdbgp/internal/weights"
)

// referenceOptimize is the full-scan gradient loop that optimize's active
// set replaced, kept as the oracle of TestActiveSetByteIdentical: every
// iteration copies z from x, runs the masked SpMV over all n rows, reduces
// masked norms over all n and rebuilds the free list from scratch. It shares
// the convergence sampler, so gd span structure is comparable too.
func referenceOptimize(wg *coarsen.Graph, opt Options, rng *rand.Rand) (x []float64, fixed []bool, itersRun int) {
	n := wg.N()
	ws := wg.VW
	d := len(ws)
	pool := vecmath.NewPool(opt.Workers)
	if opt.Projection.Workers == 0 {
		opt.Projection.Workers = opt.Workers
	}
	gdSpan := opt.Span.Start("gd")
	defer gdSpan.End()
	var conv *convSampler
	if gdSpan != nil {
		gdSpan.SetAttr("n", n)
		gdSpan.SetAttr("arcs", len(wg.Adj))
		conv = newConvSampler(wg, opt.Iterations, pool)
	}
	totals := make([]float64, d)
	for j, w := range ws {
		for _, v := range w {
			totals[j] += v
		}
	}
	s := 2*opt.TargetFraction - 1
	x = make([]float64, n)
	for i, v := range opt.WarmStart {
		x[i] = vecmath.ClampVal(v)
	}
	z, grad := make([]float64, n), make([]float64, n)
	fixed = make([]bool, n)
	fixedWeight, freeWeight := make([]float64, d), append([]float64(nil), totals...)
	fixedCount := 0
	yF, xF := make([]float64, n), make([]float64, n)
	L := opt.StepLength * math.Sqrt(float64(n)) / float64(opt.Iterations)
	gammaFrozen := opt.FixedGamma
	var st project.State
	maskedNormSq := func() float64 {
		return pool.ReduceSum(n, func(lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				if !fixed[i] {
					s += grad[i] * grad[i]
				}
			}
			return s
		})
	}
	for t := 0; t < opt.Iterations && fixedCount < n; t++ {
		itersRun++
		copy(z, x)
		if t == 0 && opt.WarmStart == nil {
			for i := 0; i < n; i++ {
				if !fixed[i] {
					z[i] += rng.NormFloat64() * opt.NoiseScale
				}
			}
		}
		vecmath.SpMVWeightedMaskedPool(wg.Offsets, wg.Adj, wg.EW, z, grad, fixed, pool)
		var gnorm float64
		if conv != nil && conv.wantSample(t) {
			normSq, freeQuad := pool.ReduceSum2(n, func(lo, hi int) (float64, float64) {
				s, q := 0.0, 0.0
				for i := lo; i < hi; i++ {
					if !fixed[i] {
						g := grad[i]
						s += g * g
						q += z[i] * g
					}
				}
				return s, q
			})
			conv.record(t, freeQuad)
			gnorm = math.Sqrt(normSq)
		} else {
			gnorm = math.Sqrt(maskedNormSq())
		}
		gradIsNoise := false
		if gnorm < 1e-12 {
			gradIsNoise = true
			for i := 0; i < n; i++ {
				if !fixed[i] {
					grad[i] = rng.NormFloat64()
				}
			}
			if gnorm = math.Sqrt(maskedNormSq()); gnorm == 0 {
				break
			}
		}
		gamma := L / gnorm
		if !opt.Adaptive {
			if gammaFrozen == 0 {
				gammaFrozen = gamma
			}
			gamma = gammaFrozen
		}
		var freeIdx []int
		for i := 0; i < n; i++ {
			if !fixed[i] {
				freeIdx = append(freeIdx, i)
			}
		}
		nf := len(freeIdx)
		cons := make([]project.Constraint, d)
		for j := range cons {
			wF := make([]float64, nf)
			for fi, i := range freeIdx {
				wF[fi] = ws[j][i]
			}
			lo := s*totals[j] - opt.Epsilon*totals[j] - fixedWeight[j]
			hi := s*totals[j] + opt.Epsilon*totals[j] - fixedWeight[j]
			if lo > freeWeight[j] {
				lo, hi = freeWeight[j], freeWeight[j]
			} else if hi < -freeWeight[j] {
				lo, hi = -freeWeight[j], -freeWeight[j]
			} else {
				if hi > freeWeight[j] {
					hi = freeWeight[j]
				}
				if lo < -freeWeight[j] {
					lo = -freeWeight[j]
				}
			}
			cons[j] = project.Constraint{W: wF, Lo: lo, Hi: hi}
		}
		for attempt := 0; ; attempt++ {
			for fi, i := range freeIdx {
				yF[fi] = z[i] + gamma*grad[i]
			}
			if err := project.Project(xF[:nf], yF[:nf], cons, opt.Projection, &st); err != nil {
				panic(err)
			}
			stepNorm := math.Sqrt(pool.ReduceSum(nf, func(lo, hi int) float64 {
				s := 0.0
				for fi := lo; fi < hi; fi++ {
					dlt := xF[fi] - x[freeIdx[fi]]
					s += dlt * dlt
				}
				return s
			}))
			if !opt.Adaptive || opt.WarmStart != nil || stepNorm >= L/2 || attempt >= 3 {
				break
			}
			gamma *= 2
		}
		for fi, i := range freeIdx {
			x[i] = xF[fi]
		}
		if !opt.VertexFixing {
			continue
		}
		for _, i := range freeIdx {
			if v := x[i]; v >= opt.FixThreshold || v <= -opt.FixThreshold {
				snapped := math.Copysign(1, v)
				x[i], fixed[i] = snapped, true
				fixedCount++
				for j := 0; j < d; j++ {
					fixedWeight[j] += ws[j][i] * snapped
					freeWeight[j] -= ws[j][i]
				}
				if conv != nil {
					gi := grad[i]
					if gradIsNoise {
						gi = 0
					}
					conv.onFix(gi, snapped)
				}
			}
		}
	}
	if gdSpan != nil {
		gdSpan.SetAttr("iters", itersRun)
		gdSpan.SetAttr("fixed", fixedCount)
		conv.annotate(gdSpan, x)
	}
	return x, fixed, itersRun
}

// TestActiveSetByteIdentical pins optimize's active-set loop to the
// full-scan reference bit for bit — x, the fixed mask, the iteration count,
// the rng position handed on to rounding, and the gd span structure —
// across workers 1/2/8 × vertex fixing on/off × cold and warm start (the
// multilevel refinement path) × span on/off. The graphs cover an n that is
// not a multiple of the 4096-row reduction chunk, a run that fixes every
// vertex before the budget ends, and the saddle fallback (no edges, so
// every gradient is zero). The n = 9001 graph also runs with four balance
// dimensions and with nearest-face one-shot projection, and a smaller graph
// with the exact d = 2 projection, so the projection optimize calls without
// validation is pinned for more than the default method. The exact
// projection is serial and far slower per call than one-shot, so its graph
// is smaller than one chunk (where every worker count takes the serial
// path) and it runs a short budget, one worker count and no spans (span
// telemetry never touches the projection).
func TestActiveSetByteIdentical(t *testing.T) {
	unitWeights := func(n int) [][]float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return [][]float64{w}
	}
	sbm, _ := gen.SBM(gen.SBMConfig{N: 9001, Communities: 3, AvgDegree: 12, InFraction: 0.8, Seed: 7})
	cliques := gen.CliqueChain(2, 20)
	edgeless := graph.NewBuilder(4097).Build()
	sbmD4, err := weights.Standard(sbm, 4)
	if err != nil {
		t.Fatal(err)
	}
	sbmWG := coarsen.Wrap(sbm, vertexEdgeWeights(sbm))
	small, _ := gen.SBM(gen.SBMConfig{N: 1000, Communities: 3, AvgDegree: 12, InFraction: 0.8, Seed: 7})
	defaultProj := DefaultOptions().Projection
	cases := []struct {
		name string
		wg   *coarsen.Graph
		proj project.Options
		// short caps the iteration budget at 10 and runs only workers=1
		// without spans.
		short bool
	}{
		{"sbm-n9001", sbmWG, defaultProj, false},
		{"sbm-n9001-d4", coarsen.Wrap(sbm, sbmD4), defaultProj, false},
		{"sbm-n9001-nearest-face", sbmWG, project.Options{Method: project.AlternatingOneShot, Center: false}, false},
		{"sbm-n1000-exact", coarsen.Wrap(small, vertexEdgeWeights(small)), project.Options{Method: project.Exact}, true},
		{"cliques-all-fixed", coarsen.Wrap(cliques, vertexEdgeWeights(cliques)), defaultProj, false},
		{"edgeless-saddle", coarsen.Wrap(edgeless, unitWeights(edgeless.N())), defaultProj, false},
	}
	type outcome struct {
		x         []float64
		fixed     []bool
		iters     int
		next      int64
		structure string
	}
	run := func(opt Options, f func(*coarsen.Graph, Options, *rand.Rand) ([]float64, []bool, int), wg *coarsen.Graph, span bool) outcome {
		var root *obs.Span
		if span {
			root = obs.NewTrace("t")
			opt.Span = root
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		x, fixed, iters := f(wg, opt, rng)
		return outcome{x, fixed, iters, rng.Int63(), root.Snapshot().Structure()}
	}
	active := func(wg *coarsen.Graph, opt Options, rng *rand.Rand) ([]float64, []bool, int) {
		x, fixed, iters, _, _, _, err := optimize(wg, opt, rng)
		if err != nil {
			t.Fatal(err)
		}
		return x, fixed, iters
	}
	allFixedEarly := false
	for _, tc := range cases {
		n := tc.wg.N()
		warm := make([]float64, n)
		wr := rand.New(rand.NewSource(9))
		for i := range warm {
			warm[i] = wr.Float64()*2.2 - 1.1 // some start beyond the fix threshold
		}
		for _, fixing := range []bool{true, false} {
			for _, warmStart := range []bool{false, true} {
				for _, span := range []bool{false, true} {
					for _, w := range workerCounts {
						if tc.short && (span || w != 1) {
							continue
						}
						label := fmt.Sprintf("%s fixing=%t warm=%t span=%t workers=%d", tc.name, fixing, warmStart, span, w)
						opt := DefaultOptions()
						opt.Seed = 5
						opt.Workers = w
						opt.VertexFixing = fixing
						opt.Projection = tc.proj
						if warmStart {
							opt.WarmStart = warm
							opt.Iterations = 30
						}
						if tc.short {
							opt.Iterations = 10
						}
						opt.normalize()
						want := run(opt, referenceOptimize, tc.wg, span)
						got := run(opt, active, tc.wg, span)
						for i := range want.x {
							if math.Float64bits(got.x[i]) != math.Float64bits(want.x[i]) || got.fixed[i] != want.fixed[i] {
								t.Fatalf("%s: vertex %d: x=%v fixed=%t, want x=%v fixed=%t",
									label, i, got.x[i], got.fixed[i], want.x[i], want.fixed[i])
							}
						}
						if got.iters != want.iters || got.next != want.next {
							t.Fatalf("%s: iterations %d rng %d, want %d rng %d", label, got.iters, got.next, want.iters, want.next)
						}
						if got.structure != want.structure {
							t.Fatalf("%s: span structure\n%s\nwant\n%s", label, got.structure, want.structure)
						}
						if want.iters < opt.Iterations && !slices.Contains(want.fixed, false) {
							allFixedEarly = true
						}
					}
				}
			}
		}
	}
	if !allFixedEarly {
		t.Fatal("no run fixed every vertex before its budget; the early-exit path went untested")
	}
}
