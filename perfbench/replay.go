package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mdbgp"
	"mdbgp/internal/core"
	"mdbgp/internal/graph"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/partition"
	"mdbgp/internal/project"
	"mdbgp/internal/reorder"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one replayed operation share Op; Parent
// is the span whose interval contains this one (-1 for the operation's root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Seed   int64              `json:"seed,omitempty"` // the GD seed of a "core.bisect" span
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// layer is the module a span belongs to: the part of its name before the
// first dot ("core.bisect" → "core").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run writes them out. A nil
// recorder records nothing, which is how the untraced replay runs the same
// code.
type recorder struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) start(op, parent int, name string) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int, seed int64, attrs map[string]float64) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	r.spans[id].Seed = seed
	r.spans[id].Attrs = attrs
}

// do runs fn inside a span.
func (r *recorder) do(op, parent int, name string, fn func()) {
	id := r.start(op, parent, name)
	fn()
	r.end(id, 0, nil)
}

// opSpans returns the spans of one operation.
func (r *recorder) opSpans(op int) []span {
	var out []span
	for _, s := range r.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	return out
}

// attribution splits an operation's wall time across layers. Every instant
// of the root span goes to the innermost spans active at that instant,
// shared equally when concurrent sibling bisections overlap; the root's own
// share is the unattributed time. Layer self times plus unattributed time
// therefore add up to the operation's wall time.
type attribution struct {
	wall, unattributed time.Duration
	self               map[string]time.Duration
}

func attribute(spans []span) attribution {
	a := attribution{self: map[string]time.Duration{}}
	var bounds []int64
	root := -1
	for _, s := range spans {
		bounds = append(bounds, s.Start, s.End)
		if s.Parent < 0 {
			root = s.ID
			a.wall = time.Duration(s.End - s.Start)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi == lo {
			continue
		}
		active, busyParent := map[int]bool{}, map[int]bool{}
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi {
				active[s.ID] = true
				busyParent[s.Parent] = true
			}
		}
		var leaves []span
		for _, s := range spans {
			if active[s.ID] && !busyParent[s.ID] {
				leaves = append(leaves, s)
			}
		}
		for _, s := range leaves {
			share := time.Duration(hi-lo) / time.Duration(len(leaves))
			if s.ID == root {
				a.unattributed += share
			} else {
				a.self[s.layer()] += share
			}
		}
	}
	return a
}

// sum is the layer self times plus the unattributed time.
func (a attribution) sum() time.Duration {
	t := a.unattributed
	for _, d := range a.self {
		t += d
	}
	return t
}

// bisectTally aggregates the bisections of one k-way solve.
type bisectTally struct {
	bisections, iterations, repairs int
	busy, critical                  time.Duration
}

// tallyBisections sums the "core.bisect" spans of an operation and walks the
// recursion tree for its critical path. The tree is rebuilt from the seeds:
// core.PartitionKWith gives the children of a bisection with seed s the seeds
// s·1000003+1 and s·1000003+2.
func tallyBisections(spans []span) bisectTally {
	var t bisectTally
	dur := map[int64]time.Duration{}
	var seeds []int64
	for _, s := range spans {
		if s.Name != "core.bisect" {
			continue
		}
		d := time.Duration(s.End - s.Start)
		seed := s.Seed
		t.bisections++
		t.iterations += int(s.Attrs["iterations"])
		t.repairs += int(s.Attrs["repair_moves"])
		t.busy += d
		dur[seed] = d
		seeds = append(seeds, seed)
	}
	var crit func(seed int64) time.Duration
	crit = func(seed int64) time.Duration {
		d, ok := dur[seed]
		if !ok {
			return 0
		}
		return d + max(crit(seed*1000003+1), crit(seed*1000003+2))
	}
	// The root is the bisection no other bisection is the parent of.
	child := map[int64]bool{}
	for _, s := range seeds {
		child[s*1000003+1], child[s*1000003+2] = true, true
	}
	for _, s := range seeds {
		if !child[s] {
			t.critical = max(t.critical, crit(s))
		}
	}
	return t
}

// replayStats collects the per-operation figures of a traced replay.
type replayStats struct {
	opWall, untraced, selfCore, selfPart, unattr []float64
	busy, crit, bisections, iterations, repairs  []float64
}

// add records one replayed operation from its spans, and the wall time of
// the same operation run untraced. solved says whether the operation ran a
// k-way solve; the core.* figures describe solves only. It reports a failed
// attribution check through o and returns the attribution.
func (rs *replayStats) add(op int, spans []span, untraced time.Duration, solved bool, o *outcome) attribution {
	at := attribute(spans)
	if d := at.sum() - at.wall; d > time.Microsecond || d < -time.Microsecond {
		o.fail("replay %d: self times add up to %v, operation took %v", op, at.sum(), at.wall)
	}
	rs.opWall = append(rs.opWall, ms(at.wall))
	rs.untraced = append(rs.untraced, ms(untraced))
	rs.selfCore = append(rs.selfCore, ms(at.self["core"]))
	rs.selfPart = append(rs.selfPart, ms(at.self["partition"]))
	rs.unattr = append(rs.unattr, ms(at.unattributed))
	if solved {
		t := tallyBisections(spans)
		rs.busy = append(rs.busy, ms(t.busy))
		rs.crit = append(rs.crit, ms(t.critical))
		rs.bisections = append(rs.bisections, float64(t.bisections))
		rs.iterations = append(rs.iterations, float64(t.iterations))
		rs.repairs = append(rs.repairs, float64(t.repairs))
	}
	return at
}

// store writes the medians over the recorded operations into o.
func (rs *replayStats) store(o *outcome) {
	o.values["trace.op_ms"] = median(rs.opWall)
	o.values["trace.untraced_op_ms"] = median(rs.untraced)
	o.values["trace.overhead_frac"] = median(rs.opWall)/median(rs.untraced) - 1
	o.values["unattributed_ms"] = median(rs.unattr)
	o.values["self.core_ms"] = median(rs.selfCore)
	o.values["self.partition_ms"] = median(rs.selfPart)
	o.values["core.bisect_busy_ms"] = median(rs.busy)
	o.values["core.bisect_critical_ms"] = median(rs.crit)
	o.values["core.bisections"] = median(rs.bisections)
	o.values["core.iterations"] = median(rs.iterations)
	o.values["core.repair_moves"] = median(rs.repairs)
}

// coreOptions maps canonical public options onto the GD core the way the
// gradient engines do, including the warm-start budget of a warm solve.
// The replay's byte comparison with the real call checks the mapping.
func coreOptions(c mdbgp.Options, n int) (core.Options, error) {
	opt := core.DefaultOptions()
	opt.Epsilon = c.Epsilon
	opt.Iterations = c.Iterations
	opt.StepLength = c.StepLength
	opt.Seed = c.Seed
	opt.Workers = c.Parallelism
	opt.Adaptive = !c.DisableAdaptiveStep
	opt.VertexFixing = !c.DisableVertexFixing
	m, err := reorder.Parse(c.Reorder)
	if err != nil {
		return opt, err
	}
	opt.Reorder = m
	pm, err := project.ParseMethod(c.Projection)
	if err != nil {
		return opt, err
	}
	opt.Projection = project.Options{Method: pm, Center: pm == project.AlternatingOneShot}
	if c.WarmAssignment != nil {
		if err := mdbgp.ValidateWarmAssignment(c.WarmAssignment, n, c.K); err != nil {
			return opt, err
		}
		warm := make([]int32, n)
		for i := range warm {
			warm[i] = -1
		}
		copy(warm, c.WarmAssignment)
		opt.WarmParts = warm
		opt.Iterations = c.WarmIterations
		opt.StepLength = c.StepLength * float64(c.WarmIterations) / float64(c.Iterations)
		opt.Projection.Center = false
	}
	return opt, nil
}

// replaySolve performs the k-way solve of engine "gd" or "multilevel" through
// core.PartitionKWith with a timed bisection: "core.bisect" spans around
// core.Bisect, or, for the V-cycle, around a "coarsen.hierarchy" span
// (multilevel.BuildPrep) and a "multilevel.vcycle" span (multilevel.Bisect
// with that hierarchy injected). rootPrep, when non-nil, is a hierarchy the
// caller already holds for the root graph, as the daemon's prep cache does.
func replaySolve(rec *recorder, op, parent int, g *mdbgp.Graph, ws [][]float64, opts mdbgp.Options, rootPrep *multilevel.Prep) (*partition.Assignment, error) {
	c := opts.Canonical()
	opt, err := coreOptions(c, g.N())
	if err != nil {
		return nil, err
	}
	mlOpt := multilevel.Options{GD: opt, CoarsenTo: c.CoarsenTo, ClusterSize: c.ClusterSize, RefineIterations: c.RefineIterations}
	var inner func(id int, sub *graph.Graph, subWs [][]float64, o core.Options) (*core.Result, error)
	switch c.Engine {
	case "gd":
		inner = func(_ int, sub *graph.Graph, subWs [][]float64, o core.Options) (*core.Result, error) {
			return core.Bisect(sub, subWs, o)
		}
	case "multilevel":
		inner = func(id int, sub *graph.Graph, subWs [][]float64, o core.Options) (*core.Result, error) {
			mo := mlOpt
			mo.GD = o
			if o.WarmStart == nil { // warm V-cycles refine the finest level directly
				if rootPrep.Matches(sub) {
					mo.Prep = rootPrep
				} else {
					rec.do(op, id, "coarsen.hierarchy", func() { mo.Prep = multilevel.BuildPrep(sub, subWs, mo) })
				}
			}
			var res *core.Result
			var err error
			rec.do(op, id, "multilevel.vcycle", func() { res, err = multilevel.Bisect(sub, subWs, mo) })
			return res, err
		}
	default:
		return nil, fmt.Errorf("replay: engine %q has no gradient k-way path", c.Engine)
	}
	kid := rec.start(op, parent, "core.partitionk")
	asgn, err := core.PartitionKWith(g, ws, c.K, opt, func(sub *graph.Graph, subWs [][]float64, o core.Options) (*core.Result, error) {
		id := rec.start(op, kid, "core.bisect")
		res, err := inner(id, sub, subWs, o)
		if err != nil {
			return nil, err
		}
		rec.end(id, o.Seed, map[string]float64{
			"n":          float64(sub.N()),
			"iterations": float64(res.Iterations), "repair_moves": float64(res.RepairMoves),
		})
		return res, nil
	})
	rec.end(kid, 0, nil)
	return asgn, err
}

// score computes the quality figures mdbgp.Result reports, inside a
// "partition.score" span.
func score(rec *recorder, op, parent int, g *mdbgp.Graph, ws [][]float64, a *mdbgp.Assignment) {
	rec.do(op, parent, "partition.score", func() {
		mdbgp.EdgeLocality(g, a)
		for _, w := range ws {
			mdbgp.Imbalance(a, w)
		}
	})
}
