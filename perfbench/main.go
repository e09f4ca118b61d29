// Command perfbench is the repository benchmark. It runs one named workload
// against the mdbgp library or an in-process daemon, checks every result the
// program returns, and prints the workload's metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 24, "failed": 0, "metrics": {"latency_p50_ms": {"value": 712.3, "unit": "ms"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced. With
// --trace 1 a separate pass replays the workload's inputs through each layer's
// public functions, records spans from the benchmark's own code, and prints
// the per-layer metrics. The program itself is never instrumented.
//
// Build and run through run.sh, from the repository root:
//
//	bash perfbench/run.sh --workload gd-k8 --seed 17 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// DefaultSeed is the workload seed the benchmark runs when none is given; at
// this seed the library workloads solve exactly the graph of bench_test.go's
// benchKernelGraph. The held-out seed for confirming a claimed gain on inputs
// it was not tuned on is 2029 (see README.md).
const DefaultSeed = 17

// metricDef names one metric. For per-layer metrics, layer is the module the
// metric belongs to, moves the end-to-end metric it should move, and where
// the workloads it is loaded by (most work → little or none).
type metricDef struct {
	name, unit          string
	layer, moves, where string
}

// endToEnd lists every end-to-end metric; each run with --trace 0 prints all
// of them, on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p90_ms", unit: "ms"},
	{name: "throughput_ops_s", unit: "ops/s"},
	{name: "cpu_s_per_op", unit: "s"},
	{name: "locality", unit: "fraction"},
	{name: "max_load_ratio", unit: "ratio"},
	{name: "sim_pagerank_s", unit: "model_s"},
	{name: "success_frac", unit: "fraction"},
	{name: "peak_rss_mb", unit: "MiB"},
}

const (
	srv   = "serve-mixed → little in gd-k8, multilevel-k8-d4"
	lat   = "latency_p50_ms"
	latCP = "latency_p50_ms, cpu_s_per_op"
)

// perLayer lists every per-layer metric; each run with --trace 1 prints all
// of them, on every workload. Layers a workload's operation does not pass
// through are still measured on that workload's inputs by calling the
// layer's public functions directly (probes), so every value is a
// measurement; the self.* and unattributed_ms metrics describe the replayed
// operation itself.
var perLayer = []metricDef{
	{"trace.op_ms", "ms", "(all)", lat, "all"},
	{"trace.untraced_op_ms", "ms", "(all)", lat, "all"},
	{"trace.overhead_frac", "fraction", "(all)", lat, "all"},
	{"unattributed_ms", "ms", "(all)", "—", "all"},
	{"self.core_ms", "ms", "core", latCP, "gd-k8 → serve-mixed"},
	{"self.partition_ms", "ms", "partition", lat, "all"},
	{"core.bisect_busy_ms", "ms", "core", latCP, "gd-k8 → serve-mixed"},
	{"core.bisect_critical_ms", "ms", "core", latCP, "gd-k8 → serve-mixed"},
	{"core.bisections", "count", "core", latCP, "gd-k8 → serve-mixed"},
	{"core.iterations", "count", "core", latCP, "gd-k8 → serve-mixed"},
	{"core.repair_moves", "count", "core", latCP, "gd-k8 → serve-mixed"},
	{"vecmath.spmv_ms", "ms", "vecmath", lat, "gd-k8 → multilevel-k8-d4 (less)"},
	{"vecmath.spmv_gbps_computed", "GB/s", "vecmath", lat, "gd-k8 → multilevel-k8-d4 (less)"},
	{"project.ms", "ms", "project", lat, "multilevel-k8-d4, gd-k8 → serve-mixed"},
	{"reorder.layout_ms", "ms", "reorder", "off the blocking path (default none)", "gd-k8"},
	{"reorder.spmv_layout_ms", "ms", "reorder", "off the blocking path (default none)", "gd-k8"},
	{"coarsen.hierarchy_ms", "ms", "coarsen", lat, "multilevel-k8-d4 → none in gd-k8"},
	{"coarsen.levels", "count", "coarsen", lat, "multilevel-k8-d4 → none in gd-k8"},
	{"coarsen.coarsest_n", "count", "coarsen", lat, "multilevel-k8-d4 → none in gd-k8"},
	{"multilevel.vcycle_ms", "ms", "multilevel", lat, "multilevel-k8-d4 → none in gd-k8"},
	{"weights.standard_ms", "ms", "weights", lat, "serve-mixed (dims= requests)"},
	{"graph.parse_ms", "ms", "graph", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"graph.parse_mb_s", "MB/s", "graph", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"wire.decode_ms", "ms", "wire", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"wire.decode_mb_s", "MB/s", "wire", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"graph.hash_ms", "ms", "graph", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"graph.delta_apply_ms", "ms", "graph", "latency_p50_ms, latency_p90_ms, throughput_ops_s", srv},
	{"server.result_hit_frac", "fraction", "server", "throughput_ops_s, latency_p50_ms", srv},
	{"server.delta_warm_frac", "fraction", "server", "throughput_ops_s, latency_p50_ms", srv},
	{"server.queue_wait_p50_ms", "ms", "server", "throughput_ops_s, latency_p50_ms", srv},
	{"server.ingest_p50_ms", "ms", "server", "throughput_ops_s, latency_p50_ms", srv},
	{"server.http_overhead_ms", "ms", "server", "throughput_ops_s, latency_p50_ms", srv},
	{"prep.hit_frac", "fraction", "prep", "throughput_ops_s, latency_p50_ms", srv},
	{"cachestore.put_ms", "ms", "cachestore", "throughput_ops_s, latency_p50_ms", srv},
	{"cachestore.get_ms", "ms", "cachestore", "throughput_ops_s, latency_p50_ms", srv},
	{"obs.spans_per_request", "count", "obs", "peak_rss_mb, latency_p50_ms", srv},
}

// runConfig is what one run of a workload needs.
type runConfig struct {
	seed    int64
	seconds float64
	sc      scale
	out     string // directory for result records and span dumps
	log     io.Writer
	// corrupt, when set, damages one returned assignment before the checks
	// run; the self-test uses it to prove the checks catch a wrong result.
	corrupt bool
}

// scale sizes a workload's inputs. fullScale is the benchmark; toyScale keeps
// the self-test cheap.
type scale struct {
	libN, libCommunities int     // library graph (SBM)
	libDegree            float64 //
	libSeeds             int     // solve seeds cycled by the library client
	serveN, serveComms   int     // one pooled serve graph (SBM)
	serveDegree          float64 //
	serveBases           int     // pooled serve graphs
	setupReps            int     // set-ups per run; setup_s is their median
	probeReps            int     // calls per layer probe; the median is kept
	traceServeOps        int     // served requests replayed by a traced serve run
}

var fullScale = scale{
	libN: 100000, libCommunities: 4000, libDegree: 14, libSeeds: 8,
	serveN: 25000, serveComms: 500, serveDegree: 11, serveBases: 6,
	setupReps: 5, probeReps: 5, traceServeOps: 40,
}

var toyScale = scale{
	libN: 3000, libCommunities: 120, libDegree: 10, libSeeds: 3,
	serveN: 1500, serveComms: 40, serveDegree: 8, serveBases: 2,
	setupReps: 2, probeReps: 2, traceServeOps: 12,
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted, failed int
	problems          []string // correctness failures, one line each
	values            map[string]float64
	extra             map[string]any // recorded with the result, not printed as metrics
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type workload struct {
	name   string
	timed  func(runConfig) (*outcome, error)
	traced func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{name: "gd-k8", timed: gdK8.timed, traced: gdK8.traced},
	{name: "multilevel-k8-d4", timed: mlK8D4.timed, traced: mlK8D4.traced},
	{name: "serve-mixed", timed: serveTimed, traced: serveTraced},
}

func main() {
	name := flag.String("workload", "", "workload to run: gd-k8, multilevel-k8-d4 or serve-mixed")
	seed := flag.Int64("seed", DefaultSeed, "workload seed; every input is derived from it")
	seconds := flag.Float64("seconds", 20, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, sc: fullScale, out: filepath.Join(".bench_build", "results"), log: os.Stdout}
	res, err := run(*name, *trace == 1, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload, prints its metric table and the machine it ran
// on, records everything under cfg.out, and returns the result line.
func run(name string, traced bool, cfg runConfig) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	mach := machine()
	fmt.Fprintf(cfg.log, "workload %s  seed %d  seconds %g  trace %t\n", name, cfg.seed, cfg.seconds, traced)
	fmt.Fprintf(cfg.log, "machine  %s\n", mach)
	start := time.Now()
	defs, fn := endToEnd, w.timed
	if traced {
		defs, fn = perLayer, w.traced
	}
	o, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		o.fail("no operation was attempted")
	}
	if len(o.problems) > 0 && res.Failed == 0 {
		res.Failed = 1
	}
	res.Correct = len(o.problems) == 0 && res.Failed == 0
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if traced {
			fmt.Fprintf(cfg.log, "  %-28s %14.6g %-8s layer %-10s moves %s; loaded by %s\n", d.name, v, d.unit, d.layer, d.moves, d.where)
		} else {
			fmt.Fprintf(cfg.log, "  %-28s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	for _, p := range o.problems {
		fmt.Fprintln(cfg.log, "CHECK FAILED:", p)
	}
	fmt.Fprintf(cfg.log, "correct %t  attempted %d  failed %d  run %.1fs\n", res.Correct, res.Attempted, res.Failed, time.Since(start).Seconds())
	record := map[string]any{
		"workload": name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": traced,
		"machine": mach, "result": res, "problems": o.problems, "extra": o.extra,
	}
	mode := "timed"
	if traced {
		mode = "traced"
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s.json", name, cfg.seed, mode))
	if err := writeJSON(path, record); err != nil {
		return nil, err
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle of xs (the mean of the two middle values for an
// even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timeMedian calls fn reps times and returns the median wall time in ms.
func timeMedian(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		fn()
		ts[i] = ms(time.Since(t))
	}
	return median(ts)
}
