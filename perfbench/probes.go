package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"mdbgp"
	"mdbgp/internal/cachestore"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/project"
	"mdbgp/internal/reorder"
	"mdbgp/internal/vecmath"
	"mdbgp/internal/wire"
)

// probeInput is the workload input the layer probes run on: its top-level
// graph, balance weights, options and one of its results.
type probeInput struct {
	g    *mdbgp.Graph
	ws   [][]float64
	dims []mdbgp.Weight
	opts mdbgp.Options
	res  *mdbgp.Result
}

// probeLayers times each layer's public entry point on the workload's input,
// taking the median of cfg.sc.probeReps calls, and stores the per-call
// metrics in o.
func probeLayers(cfg runConfig, p probeInput, o *outcome) error {
	reps := cfg.sc.probeReps
	g := p.g
	n := g.N()
	offsets, adj := g.CSR()
	rng := rand.New(rand.NewSource(derive(cfg.seed, "probe", 0)))
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	dst := make([]float64, n)
	fixed := make([]bool, n)
	pool := vecmath.NewPool(0)

	// vecmath: the gradient SpMV the GD loop runs on an unweighted top-level
	// graph. Computed bytes per call: offsets (8 B per row + 1), the column
	// index and the gathered x per arc (4 + 8 B), the fixed mask and the
	// result per row (1 + 8 B).
	spmv := timeMedian(reps, func() { vecmath.SpMVWeightedMaskedPool(offsets, adj, nil, x, dst, fixed, pool) })
	o.values["vecmath.spmv_ms"] = spmv
	computed := float64(8*(n+1) + 12*len(adj) + 9*n)
	o.values["vecmath.spmv_gbps_computed"] = computed / (spmv / 1e3) / 1e9

	// project: one projection onto the workload's balance slabs at the
	// root bisection (target fraction ½, ε split over ⌈log2 K⌉ levels).
	c := p.opts.Canonical()
	levels := math.Ceil(math.Log2(float64(c.K)))
	cons := make([]project.Constraint, len(p.ws))
	for j, w := range p.ws {
		half := c.Epsilon / levels * sum(w) / 2
		cons[j] = project.Constraint{W: w, Lo: -half, Hi: half}
	}
	y := make([]float64, n)
	for i := range y {
		y[i] = 1.5 * x[i]
	}
	popt := project.Options{Method: project.AlternatingOneShot, Center: true}
	var perr error
	o.values["project.ms"] = timeMedian(reps, func() { perr = project.Project(dst, y, cons, popt, &project.State{}) })
	if perr != nil {
		return fmt.Errorf("project probe: %w", perr)
	}

	// reorder: building a degree-ordered layout, and the SpMV through it.
	var lerr error
	o.values["reorder.layout_ms"] = timeMedian(reps, func() { _, lerr = mdbgp.PrepareLayout(g, "degree") })
	if lerr != nil {
		return fmt.Errorf("reorder probe: %w", lerr)
	}
	lay := reorder.NewLayout(offsets, adj, nil, reorder.Degree)
	o.values["reorder.spmv_layout_ms"] = timeMedian(reps, func() { lay.SpMVMasked(x, dst, fixed, pool) })

	// coarsen and multilevel: the V-cycle hierarchy of the root bisection
	// under the workload's weights and seed, then the V-cycle with that
	// hierarchy injected (coarse solve and refinement only).
	gdOpt, err := coreOptions(c, n)
	if err != nil {
		return err
	}
	gdOpt.Epsilon /= levels
	mlOpt := multilevel.Options{GD: gdOpt}
	var prep *multilevel.Prep
	o.values["coarsen.hierarchy_ms"] = timeMedian(reps, func() { prep = multilevel.BuildPrep(g, p.ws, mlOpt) })
	mlOpt.Prep = prep
	// The V-cycle's own coarsen span reports the hierarchy's shape.
	root := mdbgp.NewTrace("probe")
	spanned := mlOpt
	spanned.GD.Span = root
	if _, err := multilevel.Bisect(g, p.ws, spanned); err != nil {
		return err
	}
	root.End()
	root.Snapshot().Walk(func(v *mdbgp.SpanView) {
		if v.Name == "coarsen" {
			o.values["coarsen.levels"], _ = v.Float("levels")
			o.values["coarsen.coarsest_n"], _ = v.Float("coarse_n")
		}
	})
	o.values["multilevel.vcycle_ms"] = timeMedian(reps, func() { _, err = multilevel.Bisect(g, p.ws, mlOpt) })
	if err != nil {
		return fmt.Errorf("v-cycle probe: %w", err)
	}

	var werr error
	o.values["weights.standard_ms"] = timeMedian(reps, func() { _, werr = mdbgp.StandardWeights(g, p.dims...) })
	if werr != nil {
		return fmt.Errorf("weights probe: %w", werr)
	}

	// graph and wire: ingest of the graph in both codecs, hashing, and
	// applying a 1% churn delta.
	var text, bin bytes.Buffer
	if err := mdbgp.WriteEdgeList(&text, g); err != nil {
		return err
	}
	if err := wire.Encode(&bin, g, nil); err != nil {
		return err
	}
	var gerr error
	parse := timeMedian(reps, func() {
		b := mdbgp.NewBuilder(0)
		if gerr = mdbgp.ReadEdgeListInto(b, bytes.NewReader(text.Bytes()), 1<<24); gerr == nil {
			b.Build()
		}
	})
	if gerr != nil {
		return fmt.Errorf("parse probe: %w", gerr)
	}
	o.values["graph.parse_ms"] = parse
	o.values["graph.parse_mb_s"] = float64(text.Len()) / 1e6 / (parse / 1e3)
	decode := timeMedian(reps, func() { _, _, gerr = wire.Decode(bytes.NewReader(bin.Bytes())) })
	if gerr != nil {
		return fmt.Errorf("decode probe: %w", gerr)
	}
	o.values["wire.decode_ms"] = decode
	o.values["wire.decode_mb_s"] = float64(bin.Len()) / 1e6 / (decode / 1e3)
	o.values["graph.hash_ms"] = timeMedian(reps, func() { g.HashString() })
	d := churnDelta(g, edgeList(g), rng, int(g.M()/200))
	o.values["graph.delta_apply_ms"] = timeMedian(reps, func() { mdbgp.ApplyEdgeDelta(g, d) })

	// cachestore: the disk tier's synchronous encode+write and read+verify
	// of one result.
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("probe-store-%d", os.Getpid()))
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	store, err := cachestore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()
	key := mdbgp.EngineVersion + ":" + g.HashString() + ":probe:" + c.Fingerprint()
	var serr error
	o.values["cachestore.put_ms"] = timeMedian(reps, func() { _, serr = store.PutRaw(cachestore.EncodeEntry(key, p.res)) })
	if serr != nil {
		return fmt.Errorf("cachestore probe: %w", serr)
	}
	ok := false
	o.values["cachestore.get_ms"] = timeMedian(reps, func() { _, ok = store.Get(key) })
	if !ok {
		return fmt.Errorf("cachestore probe: entry written but not read back")
	}
	return nil
}

func sum(w []float64) float64 {
	t := 0.0
	for _, v := range w {
		t += v
	}
	return t
}

// edgeList lists each undirected edge of g once.
func edgeList(g *mdbgp.Graph) []mdbgp.Edge {
	es := make([]mdbgp.Edge, 0, g.M())
	g.EachEdge(func(u, v int) bool {
		es = append(es, mdbgp.Edge{U: int32(u), V: int32(v)})
		return true
	})
	return es
}

// churnDelta removes r random existing edges and adds r random vertex
// pairs, a churn of about 2r/m.
func churnDelta(g *mdbgp.Graph, edges []mdbgp.Edge, rng *rand.Rand, r int) *mdbgp.EdgeDelta {
	d := &mdbgp.EdgeDelta{}
	for i := 0; i < r; i++ {
		d.Remove = append(d.Remove, edges[rng.Intn(len(edges))])
	}
	d.Add = randomEdges(g.N(), rng, r)
	return d
}

// randomEdges draws r vertex pairs with distinct endpoints.
func randomEdges(n int, rng *rand.Rand, r int) []mdbgp.Edge {
	out := make([]mdbgp.Edge, 0, r)
	for len(out) < r {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			out = append(out, mdbgp.Edge{U: int32(u), V: int32(v)})
		}
	}
	return out
}
