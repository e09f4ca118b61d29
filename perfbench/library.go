package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"mdbgp"
)

// libWorkload is a closed loop of one client calling mdbgp.Partition on one
// large graph, cycling a fixed list of solve seeds.
type libWorkload struct {
	name   string
	engine string
	dims   []mdbgp.Weight
}

// gdK8 is the paper's algorithm on the reference graph: nearly all of its
// time is the GD loop (SpMV, projection, per-iteration passes).
var gdK8 = &libWorkload{name: "gd-k8", engine: "gd",
	dims: []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges}}

// mlK8D4 moves the time into coarsening and the V-cycle's refinement, with
// four balance dimensions giving the projection more work per iteration.
var mlK8D4 = &libWorkload{name: "multilevel-k8-d4", engine: "multilevel",
	dims: []mdbgp.Weight{mdbgp.WeightVertices, mdbgp.WeightEdges, mdbgp.WeightPageRank, mdbgp.WeightNeighborDegrees}}

const (
	libK   = 8
	libEps = 0.05
	// libTopologySeed is the SBM seed of bench_test.go's benchMLGraph, and
	// relabelOffset makes the default workload seed (17) draw that file's
	// relabelling seed (99).
	libTopologySeed = 17
	relabelOffset   = 82
)

type libInstance struct {
	g     *mdbgp.Graph
	ws    [][]float64
	seeds []int64
	dims  []mdbgp.Weight
}

// build generates the workload's graph and its balance weights. The
// topology is fixed — the degree-corrected SBM of bench_test.go's
// benchMLGraph — so every seed solves a graph of the same size and
// structure; the seed picks the random relabelling, which leaves ingest ids
// without locality, and the solve seeds. At the default seed the graph is
// exactly bench_test.go's benchKernelGraph.
func (w *libWorkload) build(cfg runConfig) *libInstance {
	sc := cfg.sc
	g0, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{
		N: sc.libN, Communities: sc.libCommunities, AvgDegree: sc.libDegree, InFraction: 0.8, Seed: libTopologySeed,
	})
	g := relabel(g0, cfg.seed+relabelOffset)
	ws, err := mdbgp.StandardWeights(g, w.dims...)
	if err != nil {
		panic(err) // the dimensions are fixed above
	}
	inst := &libInstance{g: g, ws: ws, dims: w.dims}
	for i := 0; i < sc.libSeeds; i++ {
		inst.seeds = append(inst.seeds, derive(cfg.seed, w.name+"/solve", i))
	}
	return inst
}

func (w *libWorkload) options(inst *libInstance, seed int64) mdbgp.Options {
	return mdbgp.Options{Engine: w.engine, K: libK, Epsilon: libEps, Weights: inst.ws, Seed: seed}
}

// libOp is one timed mdbgp.Partition call.
type libOp struct {
	seed int // index into the seed list
	lat  time.Duration
	res  *mdbgp.Result
	err  error
}

func (w *libWorkload) timed(cfg runConfig) (*outcome, error) {
	var inst *libInstance
	var setups []float64
	for r := 0; r < cfg.sc.setupReps; r++ {
		inst = nil
		runtime.GC()
		t := time.Now()
		inst = w.build(cfg)
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()

	var ops []libOp
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		si := i % len(inst.seeds)
		t := time.Now()
		res, err := mdbgp.Partition(inst.g, w.options(inst, inst.seeds[si]))
		ops = append(ops, libOp{seed: si, lat: time.Since(t), res: res, err: err})
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	rss := peakRSSMiB()

	o := &outcome{attempted: len(ops), values: map[string]float64{}, extra: map[string]any{}}
	if cfg.corrupt {
		corrupt(inst.g, ops[0].res)
	}
	// Every result is checked; the first result of each seed is the
	// reference the later ones must repeat byte for byte.
	first := make([]*mdbgp.Result, len(inst.seeds))
	for i, op := range ops {
		if err := w.check(inst, op, first); err != nil {
			o.failed++
			o.fail("op %d (seed %d): %v", i, inst.seeds[op.seed], err)
		}
	}
	// Quality is measured over the whole seed list, so it repeats exactly
	// whatever the run length; seeds the window did not reach are solved now.
	for si, s := range inst.seeds {
		if first[si] == nil {
			op := libOp{seed: si}
			op.res, op.err = mdbgp.Partition(inst.g, w.options(inst, s))
			if err := w.check(inst, op, first); err != nil {
				o.fail("settle seed %d: %v", s, err)
			}
		}
	}
	var lats, locs, sims []float64
	for _, op := range ops {
		lats = append(lats, ms(op.lat))
	}
	maxImb := 0.0
	digests := map[string]string{}
	for si, res := range first {
		if res == nil {
			continue
		}
		locs = append(locs, mdbgp.EdgeLocality(inst.g, res.Assignment))
		maxImb = max(maxImb, mdbgp.MaxImbalance(res.Assignment, inst.ws))
		sim, err := simPageRank(inst.g, res.Assignment)
		if err != nil {
			o.fail("simulate pagerank: %v", err)
		}
		sims = append(sims, sim)
		digests[fmt.Sprint(inst.seeds[si])] = digestText(res.Assignment.Parts)
	}
	o.values["setup_s"] = median(setups)
	o.values["latency_p50_ms"] = quantile(lats, 0.5)
	o.values["latency_p90_ms"] = quantile(lats, 0.9)
	o.values["throughput_ops_s"] = float64(len(ops)) / wall.Seconds()
	o.values["cpu_s_per_op"] = cpu.Seconds() / float64(len(ops))
	o.values["locality"] = median(locs)
	o.values["max_load_ratio"] = 1 + maxImb
	o.extra["max_imbalance"] = maxImb
	o.values["sim_pagerank_s"] = median(sims)
	o.values["success_frac"] = float64(o.attempted-o.failed) / float64(o.attempted)
	o.values["peak_rss_mb"] = rss
	o.extra["setup_s"] = setups
	o.extra["latency_ms"] = lats
	o.extra["assignment_text_sha256_by_seed"] = digests
	o.extra["graph"] = map[string]int64{"n": int64(inst.g.N()), "m": inst.g.M()}
	return o, nil
}

// check validates one result and its repeatability across the run.
func (w *libWorkload) check(inst *libInstance, op libOp, first []*mdbgp.Result) error {
	if op.err != nil {
		return op.err
	}
	if err := checkResult(inst.g, inst.ws, libK, libEps, op.res); err != nil {
		return err
	}
	if ref := first[op.seed]; ref == nil {
		first[op.seed] = op.res
	} else if !slices.Equal(ref.Assignment.Parts, op.res.Assignment.Parts) {
		return fmt.Errorf("same seed, different assignment")
	}
	return nil
}

func (w *libWorkload) traced(cfg runConfig) (*outcome, error) {
	inst := w.build(cfg)
	o := &outcome{values: map[string]float64{}, extra: map[string]any{}}
	rec := newRecorder()
	var rs replayStats
	digests := map[string]string{} // comparable with the timed run's record
	var last *mdbgp.Result
	var lastOpts mdbgp.Options
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < len(inst.seeds) || time.Now().Before(deadline); i++ {
		opts := w.options(inst, inst.seeds[i%len(inst.seeds)])
		o.attempted++
		// The untraced call is the timed run's operation. Alternate which of
		// the two goes first, so neither always runs on a warmer heap.
		var res *mdbgp.Result
		var a *mdbgp.Assignment
		var untraced time.Duration
		var err, rerr error
		for pass := 0; pass < 2; pass++ {
			if (pass+i)%2 == 0 {
				t := time.Now()
				res, err = mdbgp.Partition(inst.g, opts)
				untraced = time.Since(t)
				continue
			}
			root := rec.start(i, -1, "op")
			if a, rerr = replaySolve(rec, i, root, inst.g, inst.ws, opts, nil); rerr == nil {
				score(rec, i, root, inst.g, inst.ws, a)
			}
			rec.end(root, 0, nil)
		}
		if err != nil {
			o.failed++
			o.fail("op %d: %v", i, err)
			continue
		}
		last, lastOpts = res, opts
		if rerr != nil || !slices.Equal(a.Parts, res.Assignment.Parts) {
			o.failed++
			o.fail("op %d: replay assignment differs from mdbgp.Partition (err %v)", i, rerr)
			continue
		}
		digests[fmt.Sprint(opts.Seed)] = digestText(a.Parts)
		at := rs.add(i, rec.opSpans(i), untraced, true, o)
		if i == 0 {
			printAttribution(cfg, w.name, at)
		}
	}
	rs.store(o)
	o.extra["assignment_text_sha256_by_seed"] = digests
	if last == nil {
		return o, nil
	}
	p := probeInput{g: inst.g, ws: inst.ws, dims: inst.dims, opts: lastOpts, res: last}
	if err := probeLayers(cfg, p, o); err != nil {
		return nil, err
	}
	if err := serveLibraryPass(cfg, p, o); err != nil {
		return nil, err
	}
	if err := writeJSON(spanPath(cfg, w.name), rec.spans); err != nil {
		return nil, err
	}
	return o, nil
}

// relabel drops g's isolated vertices and permutes the remaining ids with a
// permutation drawn from seed. A text edge list cannot carry an isolated
// vertex at the top id, so without the drop a text and a binary body of the
// same graph could decode to different graphs.
func relabel(g *mdbgp.Graph, seed int64) *mdbgp.Graph {
	var keep []int
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 0 {
			keep = append(keep, v)
		}
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(keep))
	label := make([]int, g.N())
	for i, v := range keep {
		label[v] = perm[i]
	}
	b := mdbgp.NewBuilder(len(keep))
	g.EachEdge(func(u, v int) bool {
		b.AddEdge(label[u], label[v])
		return true
	})
	return b.Build()
}

// checkResult validates one partition against its graph and balance
// dimensions: k parts, every vertex assigned, every part used, each
// dimension within ε, and the reported locality, cut and imbalances equal to
// the values recomputed here.
func checkResult(g *mdbgp.Graph, ws [][]float64, k int, eps float64, res *mdbgp.Result) error {
	a := res.Assignment
	if a == nil || a.K != k || len(a.Parts) != g.N() {
		return fmt.Errorf("assignment shape: want %d parts over %d vertices", k, g.N())
	}
	used := make([]bool, k)
	for v, p := range a.Parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("vertex %d in part %d, outside [0, %d)", v, p, k)
		}
		used[p] = true
	}
	for p, u := range used {
		if !u {
			return fmt.Errorf("part %d is empty", p)
		}
	}
	var cut int64
	g.EachEdge(func(u, v int) bool {
		if a.Parts[u] != a.Parts[v] {
			cut++
		}
		return true
	})
	if cut != res.CutEdges {
		return fmt.Errorf("reported %d cut edges, recomputed %d", res.CutEdges, cut)
	}
	if loc := mdbgp.EdgeLocality(g, a); loc != res.EdgeLocality || loc != 1-float64(cut)/float64(g.M()) {
		return fmt.Errorf("reported locality %v, recomputed %v", res.EdgeLocality, loc)
	}
	if len(res.Imbalances) != len(ws) {
		return fmt.Errorf("reported %d imbalances for %d dimensions", len(res.Imbalances), len(ws))
	}
	for j, w := range ws {
		imb := mdbgp.Imbalance(a, w)
		if imb != res.Imbalances[j] {
			return fmt.Errorf("dimension %d: reported imbalance %v, recomputed %v", j, res.Imbalances[j], imb)
		}
		if imb > eps*(1+1e-9) {
			return fmt.Errorf("dimension %d: imbalance %v exceeds ε = %v", j, imb, eps)
		}
	}
	return nil
}

// corrupt moves a vertex whose neighbours all share its part into another
// part, which changes the cut: the self-test's stand-in for a wrong answer.
func corrupt(g *mdbgp.Graph, res *mdbgp.Result) {
	parts := res.Assignment.Parts
	for v := 0; v < g.N(); v++ {
		inside := g.Degree(v) > 0
		for _, u := range g.Neighbors(v) {
			inside = inside && parts[u] == parts[v]
		}
		if inside {
			parts[v] = (parts[v] + 1) % int32(res.Assignment.K)
			return
		}
	}
}

// simPageRank is the modelled wall time of 10 PageRank supersteps on the
// partitioned graph, the paper's motivating downstream job.
func simPageRank(g *mdbgp.Graph, a *mdbgp.Assignment) (float64, error) {
	c, err := mdbgp.NewCluster(g, a, mdbgp.DefaultCostModel())
	if err != nil {
		return 0, err
	}
	_, st := mdbgp.SimulatePageRank(c, 10, 0.85)
	return st.TotalWall(), nil
}

func printAttribution(cfg runConfig, name string, at attribution) {
	fmt.Fprintf(cfg.log, "%s traced op: wall %.3fms = unattributed %.3fms", name, ms(at.wall), ms(at.unattributed))
	for _, l := range []string{"graph", "wire", "weights", "coarsen", "multilevel", "core", "partition"} {
		if d, ok := at.self[l]; ok {
			fmt.Fprintf(cfg.log, " + %s %.3fms", l, ms(d))
		}
	}
	fmt.Fprintf(cfg.log, " (sum %.3fms)\n", ms(at.sum()))
}

func spanPath(cfg runConfig, name string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-spans.json", name, cfg.seed))
}
