package project

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mdbgp/internal/vecmath"
)

// randInstance generates a random point and d random positive-weight slab
// constraints centered at c with half-width eps·Σw.
func randInstance(rng *rand.Rand, n, d int, eps float64) ([]float64, []Constraint) {
	y := make([]float64, n)
	for i := range y {
		y[i] = rng.NormFloat64() * 2
	}
	cons := make([]Constraint, d)
	for j := range cons {
		w := make([]float64, n)
		total := 0.0
		for i := range w {
			w[i] = rng.Float64()*3 + 0.05
			total += w[i]
		}
		cons[j] = Constraint{W: w, Lo: -eps * total, Hi: eps * total}
	}
	return y, cons
}

func projectWith(t *testing.T, m Method, y []float64, cons []Constraint) []float64 {
	t.Helper()
	dst := make([]float64, len(y))
	err := Project(dst, y, cons, Options{Method: m, MaxIter: 3000, Tol: 1e-12}, nil)
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return dst
}

func dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func TestBoxOnlyNoConstraints(t *testing.T) {
	y := []float64{-3, -0.5, 0, 0.5, 3}
	want := []float64{-1, -0.5, 0, 0.5, 1}
	for _, m := range []Method{Exact, Nested, Alternating, DykstraMethod, AlternatingOneShot} {
		got := projectWith(t, m, y, nil)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%v: got %v, want %v", m, got, want)
			}
		}
	}
}

func TestSolveLambdaHandComputed(t *testing.T) {
	// y = (2, 2, 0), w = 1: H(1) = clamp(1)+clamp(1)+clamp(-1) = 1.
	y := []float64{2, 2, 0}
	w := []float64{1, 1, 1}
	lam, ok := solveLambda(y, w, 1)
	if !ok || math.Abs(lam-1) > 1e-9 {
		t.Fatalf("lam=%g ok=%v, want 1", lam, ok)
	}
	// Extremes of the achievable range.
	if _, ok := solveLambda(y, w, 3.5); ok {
		t.Fatal("c beyond +Σw should be infeasible")
	}
	if _, ok := solveLambda(y, w, -3.5); ok {
		t.Fatal("c beyond −Σw should be infeasible")
	}
	if lam, ok := solveLambda(y, w, 3); !ok {
		t.Fatalf("c=+Σw should be feasible, got ok=%v lam=%g", ok, lam)
	}
}

// Property: solveLambda's λ reproduces the target exactly.
func TestQuickSolveLambdaTarget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 2
		y := make([]float64, n)
		w := make([]float64, n)
		total := 0.0
		for i := range y {
			y[i] = rng.NormFloat64() * 3
			w[i] = rng.Float64()*2 + 0.01
			total += w[i]
		}
		c := (rng.Float64()*2 - 1) * total * 0.95
		lam, ok := solveLambda(y, w, c)
		if !ok {
			return false
		}
		got := 0.0
		for i := range y {
			v := y[i] - lam*w[i]
			if v > 1 {
				v = 1
			} else if v < -1 {
				v = -1
			}
			got += w[i] * v
		}
		return math.Abs(got-c) < 1e-7*math.Max(1, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLambdaZeroWeights(t *testing.T) {
	y := []float64{5, -5}
	w := []float64{0, 0}
	if _, ok := solveLambda(y, w, 0); !ok {
		t.Fatal("zero weights with c=0 should be feasible")
	}
	if _, ok := solveLambda(y, w, 1); ok {
		t.Fatal("zero weights with c=1 should be infeasible")
	}
}

func TestExact1DMatchesDykstra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		y, cons := randInstance(rng, 25, 1, 0.05)
		ex := projectWith(t, Exact, y, cons)
		dy := projectWith(t, DykstraMethod, y, cons)
		if !Feasible(ex, cons, 1e-6) {
			t.Fatalf("trial %d: exact infeasible", trial)
		}
		if d := dist(ex, dy); d > 1e-4 {
			t.Fatalf("trial %d: exact vs dykstra distance %g", trial, d)
		}
		// Projection optimality: never farther from y than Dykstra's point.
		if dist(y, ex) > dist(y, dy)+1e-6 {
			t.Fatalf("trial %d: exact distance %g > dykstra %g", trial, dist(y, ex), dist(y, dy))
		}
	}
}

func TestExact2DMatchesDykstra(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		y, cons := randInstance(rng, 20, 2, 0.04)
		ex := projectWith(t, Exact, y, cons)
		dy := projectWith(t, DykstraMethod, y, cons)
		if !Feasible(ex, cons, 1e-6) {
			t.Fatalf("trial %d: exact infeasible", trial)
		}
		if d := dist(ex, dy); d > 1e-3 {
			t.Fatalf("trial %d: exact vs dykstra distance %g", trial, d)
		}
		if dist(y, ex) > dist(y, dy)+1e-5 {
			t.Fatalf("trial %d: exact not optimal: %g > %g", trial, dist(y, ex), dist(y, dy))
		}
	}
}

func TestNestedMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, d := range []int{1, 2, 3} {
		for trial := 0; trial < 8; trial++ {
			y, cons := randInstance(rng, 15, d, 0.06)
			ne := projectWith(t, Nested, y, cons)
			ex := projectWith(t, Exact, y, cons)
			if !Feasible(ne, cons, 1e-5) {
				t.Fatalf("d=%d trial %d: nested infeasible", d, trial)
			}
			if dd := dist(ne, ex); dd > 1e-3 {
				t.Fatalf("d=%d trial %d: nested vs exact distance %g", d, trial, dd)
			}
		}
	}
}

func TestAsymmetricSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		y, cons := randInstance(rng, 18, 2, 0.05)
		// Shift both slabs off-center, as vertex fixing does.
		for j := range cons {
			total := cons[j].TotalWeight()
			shift := (rng.Float64()*0.4 - 0.2) * total
			cons[j].Lo += shift
			cons[j].Hi += shift
		}
		ex := projectWith(t, Exact, y, cons)
		dy := projectWith(t, DykstraMethod, y, cons)
		if !Feasible(ex, cons, 1e-6) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if dist(y, ex) > dist(y, dy)+1e-5 {
			t.Fatalf("trial %d: suboptimal: %g > %g", trial, dist(y, ex), dist(y, dy))
		}
	}
}

func TestExact2DZeroWeightCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		n := 16
		y, cons := randInstance(rng, n, 2, 0.05)
		// Zero out the second-dimension weight of a third of the coords
		// (vertical boundary lines) and both weights for a couple.
		for i := 0; i < n/3; i++ {
			cons[1].W[i] = 0
		}
		cons[0].W[n-1] = 0
		cons[1].W[n-1] = 0
		ex := projectWith(t, Exact, y, cons)
		dy := projectWith(t, DykstraMethod, y, cons)
		if !Feasible(ex, cons, 1e-6) {
			t.Fatalf("trial %d: infeasible", trial)
		}
		if dist(y, ex) > dist(y, dy)+1e-4 {
			t.Fatalf("trial %d: suboptimal %g > %g", trial, dist(y, ex), dist(y, dy))
		}
	}
}

// Property: the exact projection is idempotent: P(P(y)) = P(y).
func TestQuickExactIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(2) + 1
		y, cons := randInstance(rng, 12, d, 0.08)
		p1 := make([]float64, len(y))
		if Project(p1, y, cons, Options{Method: Exact}, nil) != nil {
			return false
		}
		p2 := make([]float64, len(y))
		if Project(p2, p1, cons, Options{Method: Exact}, nil) != nil {
			return false
		}
		return dist(p1, p2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: projection onto a convex set is non-expansive:
// ‖P(a) − P(b)‖ ≤ ‖a − b‖ (+ numerical slack).
func TestQuickExactNonExpansive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(2) + 1
		a, cons := randInstance(rng, 10, d, 0.1)
		b := make([]float64, len(a))
		for i := range b {
			b[i] = a[i] + rng.NormFloat64()
		}
		pa := make([]float64, len(a))
		pb := make([]float64, len(a))
		if Project(pa, a, cons, Options{Method: Exact}, nil) != nil {
			return false
		}
		if Project(pb, b, cons, Options{Method: Exact}, nil) != nil {
			return false
		}
		return dist(pa, pb) <= dist(a, b)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every convergent method lands in K.
func TestQuickFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(3) + 1
		y, cons := randInstance(rng, 14, d, 0.07)
		for _, m := range []Method{Exact, DykstraMethod, Alternating} {
			dst := make([]float64, len(y))
			if Project(dst, y, cons, Options{Method: m, MaxIter: 2000, Tol: 1e-10}, nil) != nil {
				return false
			}
			if !Feasible(dst, cons, 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotReducesViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	y, cons := randInstance(rng, 50, 2, 0.02)
	dst := make([]float64, len(y))
	if err := Project(dst, y, cons, Options{Method: AlternatingOneShot, Center: true}, nil); err != nil {
		t.Fatal(err)
	}
	for j, c := range cons {
		before := math.Abs(c.Value(y) - c.Center())
		after := math.Abs(c.Value(dst) - c.Center())
		if after > before+1e-9 {
			t.Fatalf("dim %d: one-shot increased violation %g -> %g", j, before, after)
		}
	}
	for _, v := range dst {
		if v > 1 || v < -1 {
			t.Fatal("one-shot left the cube")
		}
	}
}

func TestWarmStartConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	y, cons := randInstance(rng, 30, 2, 0.03)
	cold := make([]float64, len(y))
	if err := Project(cold, y, cons, Options{Method: Exact}, nil); err != nil {
		t.Fatal(err)
	}
	st := &State{}
	warm1 := make([]float64, len(y))
	if err := Project(warm1, y, cons, Options{Method: Exact}, st); err != nil {
		t.Fatal(err)
	}
	// Re-project a slightly moved point with the warm state.
	y2 := make([]float64, len(y))
	for i := range y2 {
		y2[i] = y[i] + 0.01*rng.NormFloat64()
	}
	warm2 := make([]float64, len(y))
	if err := Project(warm2, y2, cons, Options{Method: Exact}, st); err != nil {
		t.Fatal(err)
	}
	coldRef := make([]float64, len(y))
	if err := Project(coldRef, y2, cons, Options{Method: Exact}, nil); err != nil {
		t.Fatal(err)
	}
	if d := dist(cold, warm1); d > 1e-9 {
		t.Fatalf("warm-start changed the result: %g", d)
	}
	if d := dist(warm2, coldRef); d > 1e-6 {
		t.Fatalf("warm-start second projection differs: %g", d)
	}
}

func TestProjectValidation(t *testing.T) {
	y := []float64{0, 0}
	if err := Project(make([]float64, 1), y, nil, Options{}, nil); err == nil {
		t.Fatal("length mismatch should error")
	}
	bad := []Constraint{{W: []float64{1, -1}, Lo: 0, Hi: 1}}
	if err := Project(make([]float64, 2), y, bad, Options{}, nil); err == nil {
		t.Fatal("negative weight should error")
	}
	rev := []Constraint{{W: []float64{1, 1}, Lo: 1, Hi: 0}}
	if err := Project(make([]float64, 2), y, rev, Options{}, nil); err == nil {
		t.Fatal("Lo > Hi should error")
	}
	short := []Constraint{{W: []float64{1}, Lo: 0, Hi: 1}}
	if err := Project(make([]float64, 2), y, short, Options{}, nil); err == nil {
		t.Fatal("weight length mismatch should error")
	}
	// Non-finite weights and bounds must be rejected up front: the
	// alternating and Dykstra methods would return an all-NaN dst with a
	// nil error.
	inf, nan := math.Inf(1), math.NaN()
	nonFinite := map[string]Constraint{
		"+Inf weight": {W: []float64{1, inf}, Lo: 0, Hi: 1},
		"NaN weight":  {W: []float64{nan, 1}, Lo: 0, Hi: 1},
		"NaN Lo":      {W: []float64{1, 1}, Lo: nan, Hi: 1},
		"NaN Hi":      {W: []float64{1, 1}, Lo: 0, Hi: nan},
		"-Inf Lo":     {W: []float64{1, 1}, Lo: -inf, Hi: 1},
		"+Inf Hi":     {W: []float64{1, 1}, Lo: 0, Hi: inf},
	}
	for name, c := range nonFinite {
		for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact, Nested} {
			if err := Project(make([]float64, 2), []float64{0.5, -0.5}, []Constraint{c}, Options{Method: m}, nil); err == nil {
				t.Errorf("%s under %v should error", name, m)
			}
		}
	}
}

// TestProjectAliasedDst checks the documented dst-may-alias-y contract for
// every method. The exact solvers write trial points into dst while they
// still read y, so they need their own copy of an aliased y.
func TestProjectAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 2, 3} {
		y, cons := randInstance(rng, 300, d, 0.02)
		for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact, Nested} {
			opt := Options{Method: m, Center: true}
			want := make([]float64, len(y))
			if err := Project(want, y, cons, opt, nil); err != nil {
				t.Fatalf("d=%d %v: %v", d, m, err)
			}
			got := append([]float64(nil), y...)
			if err := Project(got, got, cons, opt, nil); err != nil {
				t.Fatalf("d=%d %v in place: %v", d, m, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("d=%d %v in place: x[%d] = %v, want %v", d, m, i, got[i], want[i])
				}
			}
		}
	}
}

// referenceAlternating is the pass-by-pass form of alternating, the oracle
// of TestAlternatingFusedByteIdentical: copy y, project onto each
// constraint with a separate reduce pass and update pass (slabProjectP adds
// a third, the value DotPool), then clamp in its own pass.
func referenceAlternating(dst, y []float64, cons []Constraint, opt Options, pool *vecmath.Pool) {
	copy(dst, y)
	passes := 1
	if opt.Method == Alternating {
		passes = opt.maxIter()
	}
	for p := 0; p < passes; p++ {
		for _, con := range cons {
			if opt.Center {
				hyperplaneProjectP(dst, con.W, con.Center(), pool)
			} else {
				slabProjectP(dst, con, pool)
			}
		}
		vecmath.ClampPool(dst, pool)
		if opt.Method == Alternating && feasibleP(dst, cons, opt.tol(), pool) {
			return
		}
	}
}

// TestAlternatingFusedByteIdentical pins the fused alternating projection to
// the pass-by-pass reference bit for bit: centered and nearest-face,
// one-shot and iterated, d = 1…4, n within one chunk, just past it and
// across several, workers 1/2/8, dst aliasing y or not, and instances with
// a zero-weight constraint or a slab the point already satisfies.
func TestAlternatingFusedByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	variants := []string{"plain", "zero-weight", "satisfied"}
	for _, n := range []int{100, 4097, 3*4096 + 5} {
		for d := 1; d <= 4; d++ {
			for _, variant := range variants {
				y, cons := randInstance(rng, n, d, 0.01)
				for j := range cons {
					// Off-center slabs, so nearest-face mode moves too.
					shift := (rng.Float64() - 0.5) * cons[j].Hi * 20
					cons[j].Lo += shift
					cons[j].Hi += shift
				}
				// The special constraint sits in the middle for d ≥ 3, so a
				// pending update has to cross it.
				j := d / 2
				switch variant {
				case "zero-weight":
					cons[j].W = make([]float64, n)
				case "satisfied":
					v := cons[j].Value(y)
					cons[j].Lo, cons[j].Hi = v-1, v+1
				}
				for _, m := range []Method{AlternatingOneShot, Alternating} {
					for _, center := range []bool{true, false} {
						for _, workers := range []int{1, 2, 8} {
							for _, alias := range []bool{false, true} {
								opt := Options{Method: m, Center: center, Workers: workers, MaxIter: 12}
								label := fmt.Sprintf("n=%d d=%d %s %v center=%t workers=%d alias=%t",
									n, d, variant, m, center, workers, alias)
								want := make([]float64, n)
								referenceAlternating(want, y, cons, opt, opt.pool())
								got := make([]float64, n)
								src := y
								if alias {
									copy(got, y)
									src = got
								}
								if err := ProjectUnchecked(got, src, cons, opt, nil); err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								for i := range want {
									if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
										t.Fatalf("%s: x[%d] = %v, want %v", label, i, got[i], want[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestInfeasibleTarget(t *testing.T) {
	// Slab requires Σx = 10 but max achievable with w=1,n=2 is 2.
	y := []float64{0, 0}
	cons := []Constraint{{W: []float64{1, 1}, Lo: 10, Hi: 11}}
	dst := make([]float64, 2)
	if err := Project(dst, y, cons, Options{Method: Exact}, nil); err == nil {
		t.Fatal("expected ErrInfeasible")
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{AlternatingOneShot, Alternating, DykstraMethod, Exact, Nested} {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %v: got %v err %v", m, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Fatal("bogus method should error")
	}
	if Method(99).String() == "" {
		t.Fatal("unknown method should still format")
	}
}

func TestConstraintHelpers(t *testing.T) {
	c := Constraint{W: []float64{1, 2}, Lo: -1, Hi: 3}
	if c.Center() != 1 {
		t.Fatalf("center=%g", c.Center())
	}
	if c.Value([]float64{1, 1}) != 3 {
		t.Fatalf("value=%g", c.Value([]float64{1, 1}))
	}
	if !c.Satisfied([]float64{1, 1}, 0) {
		t.Fatal("hi boundary should satisfy")
	}
	if c.Satisfied([]float64{1, 1.1}, 0) {
		t.Fatal("3.2 > hi should not satisfy")
	}
	if c.WeightNormSq() != 5 {
		t.Fatalf("normsq=%g", c.WeightNormSq())
	}
	if c.TotalWeight() != 3 {
		t.Fatalf("total=%g", c.TotalWeight())
	}
}

func TestHyperplaneProjectExactness(t *testing.T) {
	x := []float64{1, 1, 1}
	w := []float64{1, 2, 3}
	hyperplaneProjectP(x, w, 0, nil)
	v := 0.0
	for i := range x {
		v += w[i] * x[i]
	}
	if math.Abs(v) > 1e-12 {
		t.Fatalf("hyperplane projection missed: %g", v)
	}
	// Zero weights: no-op.
	x2 := []float64{1, 2}
	hyperplaneProjectP(x2, []float64{0, 0}, 5, nil)
	if x2[0] != 1 || x2[1] != 2 {
		t.Fatal("zero-weight hyperplane changed x")
	}
}

// Property: the exact 2-D projection together with its dual multipliers
// forms a valid KKT certificate (§2.2): x = clamp(y − λ1·w1 − λ2·w2),
// positive λ_j ⇒ upper face tight, negative ⇒ lower face tight, zero ⇒
// inside the slab. This verifies optimality directly, independent of any
// reference algorithm.
func TestQuickExact2DKKTCertificate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		y, cons := randInstance(rng, 20, 2, 0.05)
		dst := make([]float64, len(y))
		st := &State{}
		if err := Project(dst, y, cons, Options{Method: Exact}, st); err != nil {
			return false
		}
		if len(st.Lambda) != 2 {
			t.Logf("seed %d: no multipliers recorded", seed)
			return false
		}
		l1, l2 := st.Lambda[0], st.Lambda[1]
		scale := math.Max(cons[0].TotalWeight(), cons[1].TotalWeight())
		// Stationarity: x_i = clamp(y_i − λ1·w1_i − λ2·w2_i).
		for i := range y {
			want := y[i] - l1*cons[0].W[i] - l2*cons[1].W[i]
			if want > 1 {
				want = 1
			} else if want < -1 {
				want = -1
			}
			if math.Abs(dst[i]-want) > 1e-6 {
				t.Logf("seed %d: stationarity violated at %d: %g vs %g", seed, i, dst[i], want)
				return false
			}
		}
		// Complementary slackness per dimension.
		for j, lam := range []float64{l1, l2} {
			v := cons[j].Value(dst)
			tol := 1e-6 * math.Max(1, scale)
			switch {
			case lam > 1e-7:
				if math.Abs(v-cons[j].Hi) > tol {
					t.Logf("seed %d: dim %d λ=%g>0 but value %g != Hi %g", seed, j, lam, v, cons[j].Hi)
					return false
				}
			case lam < -1e-7:
				if math.Abs(v-cons[j].Lo) > tol {
					t.Logf("seed %d: dim %d λ=%g<0 but value %g != Lo %g", seed, j, lam, v, cons[j].Lo)
					return false
				}
			default:
				if v < cons[j].Lo-tol || v > cons[j].Hi+tol {
					t.Logf("seed %d: dim %d λ≈0 but value %g outside slab", seed, j, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Exercise the d>2 exact fallback (Dykstra-based) for feasibility and
// near-optimality against plain Dykstra.
func TestExactD3Fallback(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	y, cons := randInstance(rng, 12, 3, 0.06)
	ex := projectWith(t, Exact, y, cons)
	if !Feasible(ex, cons, 1e-5) {
		t.Fatal("d=3 exact fallback infeasible")
	}
	dy := projectWith(t, DykstraMethod, y, cons)
	if dist(y, ex) > dist(y, dy)+1e-4 {
		t.Fatalf("d=3 exact fallback worse than dykstra: %g > %g", dist(y, ex), dist(y, dy))
	}
}
