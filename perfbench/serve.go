package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdbgp"
	"mdbgp/internal/multilevel"
	"mdbgp/internal/server"
	"mdbgp/internal/wire"
)

// serve-mixed drives an in-process daemon (internal/server at its default
// Config, plus a disk cache directory) over a loopback listener with two
// closed-loop clients sending wait=true requests. Requests come in blocks of
// 40 whose classes are fixed by position, not by cache state, so the mix is
// the same however long a run is; only the order within a block is
// shuffled:
//
//	22 exact repeats of an anchor request (result-cache hits), 12 binary
//	   and 10 text;
//	 8 an anchored multilevel request with a new k and ε at the same seed
//	   (result-cache miss, prep-cache hit on the coarsening hierarchy);
//	 5 ?base= deltas of under 1% churn against a gd anchor (warm path);
//	 5 graphs never seen before (a pooled graph plus a few random edges),
//	   three solved by gd and two by multilevel.
//
// Anchors — one gd and one multilevel request per pooled graph — are solved
// during set-up. Deltas and new graphs are text bodies (deltas have no binary
// codec) and new-k requests binary, so half of all bodies are text. Hits are
// 55% of requests rather than exactly half, so the median latency falls
// inside the text hits instead of on the gap between hits and misses, where
// it would jump between the two from run to run.

const (
	serveClients = 2
	serveK       = 4
	blockLen     = 40
)

var prepKs = []int{2, 3, 5, 8}

// serveBase is one pooled graph and its encodings.
type serveBase struct {
	g     *mdbgp.Graph
	text  []byte
	bin   []byte
	edges []mdbgp.Edge
	seed  int64  // solve seed of its anchors
	dims  string // dims= of its anchors ("" = server default)
}

// request is one submission.
type request struct {
	idx    int
	class  string // anchor, repeat, prep, delta, fresh
	base   int
	anchor int // repeat and delta: the anchor reused
	engine string
	k      int
	eps    float64 // 0 leaves the server default
	seed   int64
	dims   string
	binary bool
	extra  []mdbgp.Edge     // fresh: edges added to the pooled graph
	delta  *mdbgp.EdgeDelta // delta: the edit against the anchor's graph
}

// options are the library options the daemon solves the request with.
func (r request) options() mdbgp.Options {
	return mdbgp.Options{Engine: r.engine, K: r.k, Epsilon: r.eps, Seed: r.seed}
}

func (r request) weightDims() []mdbgp.Weight {
	dims, _, err := mdbgp.ParseWeightDims(r.dims)
	if err != nil {
		panic(err) // the benchmark only sends valid dims
	}
	return dims
}

type serveSet struct {
	seed    int64
	bases   []*serveBase
	anchors []request
	// anchorOps holds the daemon's replies to the anchors, sent in set-up.
	anchorOps []*servedOp
}

// buildServeSet generates the pooled graphs and the anchor requests.
func buildServeSet(cfg runConfig) *serveSet {
	sc := cfg.sc
	s := &serveSet{seed: cfg.seed}
	for b := 0; b < sc.serveBases; b++ {
		// Fixed topologies, relabelled per seed, as in the library workloads.
		g0, _ := mdbgp.GenerateSocialGraph(mdbgp.SocialGraphConfig{
			N: sc.serveN, Communities: sc.serveComms, AvgDegree: sc.serveDegree, InFraction: 0.8,
			DegreeExponent: 2.5, BlockDegreeSkew: 0.5, Seed: int64(100 + b),
		})
		g := relabel(g0, derive(cfg.seed, "serve/label", b))
		base := &serveBase{g: g, edges: edgeList(g), seed: derive(cfg.seed, "serve/seed", b)}
		if b%2 == 1 {
			base.dims = "vertices,edges,pagerank"
		}
		var text, bin bytes.Buffer
		if err := mdbgp.WriteEdgeList(&text, g); err != nil {
			panic(err) // writes to memory
		}
		if err := wire.Encode(&bin, g, nil); err != nil {
			panic(err)
		}
		base.text, base.bin = text.Bytes(), bin.Bytes()
		s.bases = append(s.bases, base)
		for _, engine := range []string{"gd", "multilevel"} {
			s.anchors = append(s.anchors, request{
				idx: -1 - len(s.anchors), class: "anchor", base: b, anchor: len(s.anchors),
				engine: engine, k: serveK, seed: base.seed, dims: base.dims, binary: len(s.anchors)%2 == 0,
			})
		}
	}
	return s
}

// request returns the i-th request of the sequence; it depends only on the
// workload seed and i.
func (s *serveSet) request(i int) request {
	slot := rand.New(rand.NewSource(derive(s.seed, "serve/block", i/blockLen))).Perm(blockLen)[i%blockLen]
	rng := rand.New(rand.NewSource(derive(s.seed, "serve/request", i)))
	pick := func(engine string) request {
		b := rng.Intn(len(s.bases))
		for _, a := range s.anchors {
			if a.base == b && a.engine == engine {
				return a
			}
		}
		panic("no anchor")
	}
	var r request
	switch {
	case slot < 22:
		r = s.anchors[rng.Intn(len(s.anchors))]
		r.class, r.binary = "repeat", slot < 12
	case slot < 30:
		r = pick("multilevel")
		r.class, r.binary = "prep", true
		r.k = prepKs[slot%len(prepKs)]
		r.eps = 0.03 + 1e-7*float64(i) // never repeats, never the anchors' 0.05
	case slot < 35:
		r = pick("gd")
		r.class, r.binary = "delta", false
		base := s.bases[r.base]
		r.delta = churnDelta(base.g, base.edges, rng, int(base.g.M()/250))
	default:
		r = pick([]string{"multilevel", "gd"}[slot%2])
		r.class, r.binary = "fresh", false
		r.extra = randomEdges(s.bases[r.base].g.N(), rng, 16)
	}
	r.idx = i
	return r
}

// body encodes a request's payload.
func (s *serveSet) body(r request) (io.Reader, string) {
	base := s.bases[r.base]
	switch {
	case r.delta != nil:
		var b bytes.Buffer
		if err := mdbgp.WriteEdgeDelta(&b, r.delta); err != nil {
			panic(err) // writes to memory
		}
		return &b, "text/plain"
	case r.extra != nil:
		var b bytes.Buffer
		for _, e := range r.extra {
			fmt.Fprintf(&b, "%d %d\n", e.U, e.V)
		}
		return io.MultiReader(bytes.NewReader(base.text), &b), "text/plain"
	case r.binary:
		return bytes.NewReader(base.bin), wire.ContentType
	}
	return bytes.NewReader(base.text), "text/plain"
}

// graph materializes the graph a request submits, client side.
func (s *serveSet) graph(r request) *mdbgp.Graph {
	base := s.bases[r.base].g
	switch {
	case r.delta != nil:
		g, _ := mdbgp.ApplyEdgeDelta(base, r.delta)
		return g
	case r.extra != nil:
		g, _ := mdbgp.ApplyEdgeDelta(base, &mdbgp.EdgeDelta{Add: r.extra})
		return g
	}
	return base
}

func (s *serveSet) query(r request) string {
	q := url.Values{}
	q.Set("engine", r.engine)
	q.Set("k", strconv.Itoa(r.k))
	q.Set("seed", strconv.FormatInt(r.seed, 10))
	q.Set("wait", "true")
	if r.eps != 0 {
		q.Set("eps", strconv.FormatFloat(r.eps, 'g', -1, 64))
	}
	if r.dims != "" {
		q.Set("dims", r.dims)
	}
	if r.delta != nil {
		q.Set("base", s.anchorOps[r.anchor].reply.JobID)
	}
	return q.Encode()
}

// daemon is an in-process server on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	dir    string
	client *http.Client
	done   chan struct{}
}

func startDaemon(cfg runConfig, tag string) (*daemon, error) {
	dir := filepath.Join(cfg.out, "tmp", fmt.Sprintf("cache-%d-%s", os.Getpid(), tag))
	os.RemoveAll(dir)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  server.New(server.Config{CacheDir: dir}),
		url:  "http://" + ln.Addr().String(),
		dir:  dir,
		done: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
	}
	d.hs = &http.Server{Handler: d.srv}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return d, nil
}

// close stops the listener and the server and removes the cache directory.
func (d *daemon) close() {
	d.hs.Close()
	<-d.done
	d.client.CloseIdleConnections()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

type submitReply struct {
	JobID     string `json:"job_id"`
	Status    string `json:"status"`
	Cache     string `json:"cache"`
	Key       string `json:"key"`
	GraphHash string `json:"graph_hash"`
	Delta     *struct {
		Mode string `json:"mode"`
	} `json:"delta"`
	Error string `json:"error"`
}

type jobReply struct {
	TotalMS float64 `json:"total_ms"`
	Result  *struct {
		K            int       `json:"k"`
		EdgeLocality float64   `json:"edge_locality"`
		CutEdges     int64     `json:"cut_edges"`
		Imbalances   []float64 `json:"imbalances"`
	} `json:"result"`
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return data, err
}

func (d *daemon) getJSON(path string, v any) error {
	data, err := d.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// metrics scrapes /metrics into a map keyed by series (name plus labels).
func (d *daemon) metrics() (map[string]float64, error) {
	data, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

// servedOp is one request and everything the client read back for it.
type servedOp struct {
	req    request
	lat    time.Duration // submit to decoded reply
	reply  submitReply
	job    jobReply
	digest string // SHA-256 of the served assignment text
	raw    []byte // the assignment text, kept for the first reply of each key
	err    error
}

// send submits one request, times it, and reads back the job and its
// assignment (untimed).
func (d *daemon) send(s *serveSet, r request, keep func(key string) bool) *servedOp {
	op := &servedOp{req: r}
	body, ct := s.body(r)
	t := time.Now()
	resp, err := d.client.Post(d.url+"/v1/partition?"+s.query(r), ct, body)
	if err != nil {
		op.err = err
		return op
	}
	err = json.NewDecoder(resp.Body).Decode(&op.reply)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	op.lat = time.Since(t)
	switch {
	case err != nil:
		op.err = fmt.Errorf("decoding reply: %w", err)
	case resp.StatusCode != http.StatusOK || op.reply.Status != "done":
		op.err = fmt.Errorf("HTTP %d, status %q: %s", resp.StatusCode, op.reply.Status, op.reply.Error)
	}
	if op.err != nil {
		return op
	}
	if op.err = d.getJSON("/v1/jobs/"+op.reply.JobID, &op.job); op.err != nil {
		return op
	}
	raw, err := d.get("/v1/jobs/" + op.reply.JobID + "/assignment")
	if err != nil {
		op.err = err
		return op
	}
	sum := sha256.Sum256(raw)
	op.digest = hex.EncodeToString(sum[:])
	if keep(op.reply.Key) {
		op.raw = raw
	}
	return op
}

// drive runs serveClients closed-loop clients over the request sequence
// until stop reports true for the next position, and returns the ops in
// sequence order.
func (d *daemon) drive(s *serveSet, stop func(i int) bool) []*servedOp {
	var mu sync.Mutex
	var ops []*servedOp
	seen := map[string]bool{}
	for _, a := range s.anchorOps {
		seen[a.reply.Key] = true
	}
	keep := func(key string) bool {
		mu.Lock()
		defer mu.Unlock()
		first := !seen[key]
		seen[key] = true
		return first
	}
	pull(serveClients, stop, func(i int) {
		op := d.send(s, s.request(i), keep)
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	})
	sort.Slice(ops, func(i, j int) bool { return ops[i].req.idx < ops[j].req.idx })
	return ops
}

// pull runs fn(0), fn(1), ... from workers goroutines, each taking the next
// position until stop reports true for it, and returns when all have
// stopped.
func pull(workers int, stop func(i int) bool, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); !stop(i); i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// warmUp boots a daemon and solves the anchors with two concurrent clients.
func (s *serveSet) warmUp(cfg runConfig, tag string) (*daemon, error) {
	d, err := startDaemon(cfg, tag)
	if err != nil {
		return nil, err
	}
	s.anchorOps = make([]*servedOp, len(s.anchors))
	pull(serveClients, func(i int) bool { return i >= len(s.anchors) }, func(i int) {
		s.anchorOps[i] = d.send(s, s.anchors[i], func(string) bool { return true })
	})
	for _, op := range s.anchorOps {
		if op.err != nil {
			d.close()
			return nil, fmt.Errorf("anchor %d: %w", op.req.anchor, op.err)
		}
	}
	return d, nil
}

// setUp builds the pool, boots a fresh daemon and solves the anchors,
// cfg.sc.setupReps times; setup_s is the median.
func setUp(cfg runConfig) (*serveSet, *daemon, []float64, error) {
	var s *serveSet
	var d *daemon
	var setups []float64
	for r := 0; r < cfg.sc.setupReps; r++ {
		if d != nil {
			d.close()
		}
		s, d = nil, nil
		runtime.GC()
		t := time.Now()
		s = buildServeSet(cfg)
		var err error
		if d, err = s.warmUp(cfg, strconv.Itoa(r)); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC()
	return s, d, setups, nil
}

func serveTimed(cfg runConfig) (*outcome, error) {
	s, d, setups, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	ops := d.drive(s, func(i int) bool { return i > 0 && !time.Now().Before(deadline) })
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	rss := peakRSSMiB()

	o := &outcome{attempted: len(ops), values: map[string]float64{}, extra: map[string]any{}}
	if cfg.corrupt {
		for _, op := range ops {
			if op.raw != nil {
				op.raw = corruptText(op.raw)
				break
			}
		}
	}
	o.failed = countFailed(ops, s.verify(ops, o))

	var lats []float64
	byClass := map[string][]float64{}
	for _, op := range ops {
		lats = append(lats, ms(op.lat))
		c := op.req.class
		if op.req.binary {
			c += "/binary"
		}
		byClass[c] = append(byClass[c], ms(op.lat))
	}
	classes := map[string]string{}
	for c, l := range byClass {
		classes[c] = fmt.Sprintf("%d requests, p50 %.1fms", len(l), median(l))
	}
	// Quality is measured on the anchors, which every run solves, so it
	// repeats exactly for a seed whatever the run length.
	var locs, sims []float64
	maxImb := 0.0
	for _, a := range s.anchorOps {
		g := s.graph(a.req)
		parts, err := mdbgp.ReadAssignment(bytes.NewReader(a.raw), g.N())
		if err != nil {
			return nil, err
		}
		asgn := &mdbgp.Assignment{Parts: parts, K: a.req.k}
		ws, _ := mdbgp.StandardWeights(g, a.req.weightDims()...)
		locs = append(locs, mdbgp.EdgeLocality(g, asgn))
		maxImb = max(maxImb, mdbgp.MaxImbalance(asgn, ws))
		sim, err := simPageRank(g, asgn)
		if err != nil {
			o.fail("simulate pagerank: %v", err)
		}
		sims = append(sims, sim)
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
	o.extra["classes"] = classes
	var sizes [][2]int64
	for _, b := range s.bases {
		sizes = append(sizes, [2]int64{int64(b.g.N()), b.g.M()})
	}
	o.extra["pool_n_m"] = sizes
	fmt.Fprintf(cfg.log, "pool (n, m): %v; requests by class: %v\n", sizes, classes)
	return o, nil
}

// verify checks every served op and returns the positions of the failed
// ones. Each op must succeed with the class's expected cache outcome and
// repeat the figures and assignment bytes of the first reply for its cache
// key. Each first reply is checked in full against the graph the client
// submitted, then byte-compared with mdbgp.Partition (or, for a warm delta,
// mdbgp.PartitionWarm from the served base assignment) on that graph.
func (s *serveSet) verify(ops []*servedOp, o *outcome) map[int]bool {
	failed := map[int]bool{}
	bad := func(op *servedOp, format string, args ...any) {
		failed[op.req.idx] = true
		o.fail("%s request %d: %s", op.req.class, op.req.idx, fmt.Sprintf(format, args...))
	}
	first := map[string]*servedOp{}
	var order []*servedOp
	for _, op := range append(append([]*servedOp(nil), s.anchorOps...), ops...) {
		if op.err != nil {
			bad(op, "%v", op.err)
			continue
		}
		want := map[string]string{"anchor": "miss", "repeat": "hit", "prep": "miss", "fresh": "miss", "delta": "miss"}[op.req.class]
		if op.reply.Cache != want {
			bad(op, "cache %q, want %q", op.reply.Cache, want)
		}
		if op.req.class == "delta" && (op.reply.Delta == nil || op.reply.Delta.Mode != "warm") {
			bad(op, "delta not solved warm")
		}
		ref, ok := first[op.reply.Key]
		if !ok {
			first[op.reply.Key] = op
			order = append(order, op)
			continue
		}
		if op.digest != ref.digest || !sameFigures(op.job, ref.job) {
			bad(op, "reply differs from the first reply for its key")
		}
	}
	// The reference solves dominate the check; run one per CPU, each
	// single-threaded (results are bit-identical at any parallelism).
	errs := make([]error, len(order))
	pull(runtime.GOMAXPROCS(0), func(i int) bool { return i >= len(order) }, func(i int) {
		errs[i] = s.checkFirst(order[i])
	})
	for i, op := range order {
		if errs[i] != nil {
			bad(op, "%v", errs[i])
		}
	}
	return failed
}

func sameFigures(a, b jobReply) bool {
	if a.Result == nil || b.Result == nil {
		return false
	}
	x, y := a.Result, b.Result
	if x.K != y.K || x.EdgeLocality != y.EdgeLocality || x.CutEdges != y.CutEdges || len(x.Imbalances) != len(y.Imbalances) {
		return false
	}
	for i := range x.Imbalances {
		if x.Imbalances[i] != y.Imbalances[i] {
			return false
		}
	}
	return true
}

// checkFirst validates the first reply for a cache key in full.
func (s *serveSet) checkFirst(op *servedOp) error {
	g := s.graph(op.req)
	if h := g.HashString(); h != op.reply.GraphHash {
		return fmt.Errorf("served graph hash %s, submitted graph hashes to %s", op.reply.GraphHash, h)
	}
	if op.job.Result == nil {
		return fmt.Errorf("job carries no result")
	}
	parts, err := mdbgp.ReadAssignment(bytes.NewReader(op.raw), g.N())
	if err != nil {
		return fmt.Errorf("reading served assignment: %w", err)
	}
	if len(parts) != g.N() {
		return fmt.Errorf("served assignment covers %d of %d vertices", len(parts), g.N())
	}
	ws, err := mdbgp.StandardWeights(g, op.req.weightDims()...)
	if err != nil {
		return err
	}
	opts := op.req.options()
	res := &mdbgp.Result{
		Assignment:   &mdbgp.Assignment{Parts: parts, K: op.job.Result.K},
		EdgeLocality: op.job.Result.EdgeLocality, CutEdges: op.job.Result.CutEdges, Imbalances: op.job.Result.Imbalances,
	}
	if err := checkResult(g, ws, opts.K, opts.Canonical().Epsilon, res); err != nil {
		return err
	}
	opts.Weights = ws
	opts.Parallelism = 1
	var want *mdbgp.Result
	if op.req.delta != nil {
		baseParts, err := mdbgp.ReadAssignment(bytes.NewReader(s.anchorOps[op.req.anchor].raw), g.N())
		if err != nil {
			return err
		}
		want, err = mdbgp.PartitionWarm(g, baseParts, opts)
		if err != nil {
			return err
		}
	} else if want, err = mdbgp.Partition(g, opts); err != nil {
		return err
	}
	if !slices.Equal(want.Assignment.Parts, parts) {
		return fmt.Errorf("served assignment differs from the library's on the same graph and options")
	}
	return nil
}

// countFailed counts the failed ops among those sent in the measured pass.
func countFailed(ops []*servedOp, failed map[int]bool) int {
	n := 0
	for _, op := range ops {
		if failed[op.req.idx] {
			n++
		}
	}
	return n
}

// digestText hashes an assignment in the daemon's "vertex part" text form.
func digestText(parts []int32) string {
	var b bytes.Buffer
	for v, p := range parts {
		fmt.Fprintf(&b, "%d %d\n", v, p)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// corruptText moves the first vertex of a served assignment to another part
// without touching the recorded digest: the self-test's wrong answer.
func corruptText(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	line := bytes.IndexByte(out, '\n')
	sp := bytes.IndexByte(out[:line], ' ')
	p, _ := strconv.Atoi(string(out[sp+1 : line]))
	fixed := fmt.Appendf(nil, "%s %d", out[:sp], (p+1)%2)
	return append(fixed, out[line:]...)
}

func serveTraced(cfg runConfig) (*outcome, error) {
	rep := cfg
	rep.sc.setupReps = 1
	s, d, _, err := setUp(rep)
	if err != nil {
		return nil, err
	}
	defer d.close()
	o := &outcome{values: map[string]float64{}, extra: map[string]any{}}
	m0, err := d.metrics()
	if err != nil {
		return nil, err
	}
	ops := d.drive(s, func(i int) bool { return i >= cfg.sc.traceServeOps })
	m1, err := d.metrics()
	if err != nil {
		return nil, err
	}
	o.attempted = len(ops)
	failed := s.verify(ops, o)
	if err := serverLayerMetrics(d, ops, m0, m1, o); err != nil {
		return nil, err
	}

	// Replay the anchors and the served requests through the library
	// layers, traced and untraced, in sequence order.
	all := append(append([]*servedOp(nil), s.anchorOps...), ops...)
	rec := newRecorder()
	traced, untraced := newReplayState(s, rec), newReplayState(s, nil)
	var rs replayStats
	printed := map[string]bool{}
	for i, op := range all {
		if op.err != nil {
			continue
		}
		// Alternate which replay goes first, so neither always finds the
		// other's data in cache.
		var digest string
		var t0 time.Duration
		for pass := 0; pass < 2; pass++ {
			if (pass+i)%2 == 0 {
				t := time.Now()
				if _, err := untraced.replay(i, op.req); err != nil {
					return nil, err
				}
				t0 = time.Since(t)
			} else if digest, err = traced.replay(i, op.req); err != nil {
				return nil, err
			}
		}
		if digest != op.digest {
			failed[op.req.idx] = true
			o.fail("%s request %d: replay assignment differs from the served one", op.req.class, op.req.idx)
		}
		at := rs.add(i, rec.opSpans(i), t0, op.req.class != "repeat", o)
		if !printed[op.req.class] {
			printed[op.req.class] = true
			printAttribution(cfg, "serve-mixed "+op.req.class, at)
		}
	}
	o.failed = countFailed(ops, failed)
	rs.store(o)

	// Probe the layers on a pooled graph whose anchors send dims=.
	a := s.anchorOps[2*(1%len(s.bases))+1]
	g := s.graph(a.req)
	ws, _ := mdbgp.StandardWeights(g, a.req.weightDims()...)
	opts := a.req.options()
	opts.Weights = ws
	res, err := mdbgp.Partition(g, opts)
	if err != nil {
		return nil, err
	}
	if err := probeLayers(cfg, probeInput{g: g, ws: ws, dims: a.req.weightDims(), opts: opts, res: res}, o); err != nil {
		return nil, err
	}
	if err := writeJSON(spanPath(cfg, "serve-mixed"), rec.spans); err != nil {
		return nil, err
	}
	return o, nil
}

// serverLayerMetrics reads the server, prep, obs layer metrics from the
// daemon's own surfaces: counter diffs of /metrics across the pass, the
// job's total_ms, and the request's span tree from /v1/jobs/{id}/trace.
func serverLayerMetrics(d *daemon, ops []*servedOp, m0, m1 map[string]float64, o *outcome) error {
	diff := func(name string) float64 { return m1[name] - m0[name] }
	frac := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := diff("mdbgpd_cache_hits_total"), diff("mdbgpd_cache_misses_total")
	o.values["server.result_hit_frac"] = frac(hits, hits+misses)
	o.values["server.delta_warm_frac"] = frac(diff("mdbgpd_delta_warm_total"), diff("mdbgpd_delta_submitted_total"))
	ph, pm := diff("mdbgpd_prep_cache_hits_total"), diff("mdbgpd_prep_cache_misses_total")
	o.values["prep.hit_frac"] = frac(ph, ph+pm)
	if n := diff("mdbgpd_ingest_duration_seconds_count"); int(n) != len(ops) {
		o.fail("/metrics counted %v ingests for %d requests", n, len(ops))
	}
	var queue, ingest, overhead, spans []float64
	for _, op := range ops {
		if op.err != nil {
			continue
		}
		var tr mdbgp.SpanView
		if err := d.getJSON("/v1/jobs/"+op.reply.JobID+"/trace", &tr); err != nil {
			return err
		}
		spans = append(spans, float64(tr.CountSpans()))
		for _, c := range tr.Children {
			switch c.Name {
			case "queue-wait":
				queue = append(queue, float64(c.DurUS)/1e3)
			case "ingest":
				ingest = append(ingest, float64(c.DurUS)/1e3)
			}
		}
		overhead = append(overhead, ms(op.lat)-op.job.TotalMS)
	}
	o.values["server.queue_wait_p50_ms"] = median(queue)
	o.values["server.ingest_p50_ms"] = median(ingest)
	o.values["server.http_overhead_ms"] = median(overhead)
	o.values["obs.spans_per_request"] = median(spans)
	return nil
}

// replayState mirrors what the daemon keeps between requests — canonical
// graphs by hash, results by cache key, and coarsening hierarchies by graph,
// seed and dims — so the replay does the work the daemon does for each
// request: ingest and hash always, a solve only on a result-cache miss, a
// hierarchy build only on a prep-cache miss.
type replayState struct {
	s       *serveSet
	rec     *recorder
	graphs  map[string]*mdbgp.Graph
	results map[string][]int32
	preps   map[string]*multilevel.Prep
	anchors map[int][]int32 // anchor index → its replayed assignment
}

func newReplayState(s *serveSet, rec *recorder) *replayState {
	return &replayState{s: s, rec: rec, graphs: map[string]*mdbgp.Graph{},
		results: map[string][]int32{}, preps: map[string]*multilevel.Prep{}, anchors: map[int][]int32{}}
}

// replay runs one request as operation op and returns the digest of the
// assignment text the daemon would serve.
func (st *replayState) replay(op int, r request) (string, error) {
	rec := st.rec
	body, _ := st.s.body(r)
	root := rec.start(op, -1, "op")
	parts, err := st.serve(op, root, r, body)
	rec.end(root, 0, nil)
	if err != nil {
		return "", err
	}
	return digestText(parts), nil
}

// serve does the daemon's work for one request inside the root span.
func (st *replayState) serve(op, root int, r request, body io.Reader) ([]int32, error) {
	rec := st.rec
	var g *mdbgp.Graph
	var err error
	switch {
	case r.delta != nil:
		rec.do(op, root, "graph.delta", func() {
			var d *mdbgp.EdgeDelta
			if d, err = mdbgp.ParseEdgeDelta(body, 1<<24); err == nil {
				g, _ = mdbgp.ApplyEdgeDelta(st.s.bases[r.base].g, d)
			}
		})
	case r.binary:
		rec.do(op, root, "wire.decode", func() { g, _, err = wire.Decode(body) })
		if err == nil {
			rec.do(op, root, "graph.validate", func() { err = g.Validate() })
		}
	default:
		rec.do(op, root, "graph.parse", func() {
			b := mdbgp.NewBuilder(0)
			if err = mdbgp.ReadEdgeListInto(b, body, 1<<24); err == nil {
				g = b.Build()
			}
		})
	}
	if err != nil {
		return nil, err
	}
	var hash string
	rec.do(op, root, "graph.hash", func() { hash = g.HashString() })
	if canon, ok := st.graphs[hash]; ok {
		g = canon
	} else {
		st.graphs[hash] = g
	}
	opts := r.options()
	if r.delta != nil {
		opts.WarmAssignment = st.anchors[r.anchor]
	}
	key := hash + "|" + r.dims + "|" + opts.Fingerprint()
	parts, hit := st.results[key]
	if !hit {
		var ws [][]float64
		rec.do(op, root, "weights.standard", func() { ws, err = mdbgp.StandardWeights(g, r.weightDims()...) })
		if err != nil {
			return nil, err
		}
		opts.Weights = ws
		var prep *multilevel.Prep
		if r.engine == "multilevel" && r.delta == nil {
			pkey := fmt.Sprintf("%s|%d|%s", hash, r.seed, r.dims)
			if prep = st.preps[pkey]; prep == nil {
				c := opts.Canonical()
				gdOpt, err := coreOptions(c, g.N())
				if err != nil {
					return nil, err
				}
				mlOpt := multilevel.Options{GD: gdOpt, CoarsenTo: c.CoarsenTo, ClusterSize: c.ClusterSize, RefineIterations: c.RefineIterations}
				rec.do(op, root, "coarsen.hierarchy", func() { prep = multilevel.BuildPrep(g, ws, mlOpt) })
				st.preps[pkey] = prep
			}
		}
		a, err := replaySolve(rec, op, root, g, ws, opts, prep)
		if err != nil {
			return nil, err
		}
		score(rec, op, root, g, ws, a)
		parts = a.Parts
		st.results[key] = parts
	}
	if r.class == "anchor" {
		st.anchors[r.anchor] = parts
	}
	return parts, nil
}

// serveLibraryPass serves a library workload's instance through the
// daemon once cold (binary body) and once repeated (text body), and reads
// the server-layer metrics for that input. Both replies must carry the
// library's assignment.
func serveLibraryPass(cfg runConfig, p probeInput, o *outcome) error {
	d, err := startDaemon(cfg, "lib")
	if err != nil {
		return err
	}
	defer d.close()
	var text, bin bytes.Buffer
	if err := mdbgp.WriteEdgeList(&text, p.g); err != nil {
		return err
	}
	if err := wire.Encode(&bin, p.g, nil); err != nil {
		return err
	}
	names := make([]string, len(p.dims))
	for i, w := range p.dims {
		names[i] = w.String()
	}
	c := p.opts.Canonical()
	s := &serveSet{bases: []*serveBase{{g: p.g, text: text.Bytes(), bin: bin.Bytes()}}}
	r := request{engine: c.Engine, k: c.K, eps: c.Epsilon, seed: c.Seed, dims: strings.Join(names, ",")}
	m0, err := d.metrics()
	if err != nil {
		return err
	}
	var ops []*servedOp
	for i, binary := range []bool{true, false} {
		r.idx, r.binary = i, binary
		op := d.send(s, r, func(string) bool { return false })
		if op.err != nil {
			return op.err
		}
		if op.digest != digestText(p.res.Assignment.Parts) {
			o.fail("served assignment (binary=%t) differs from mdbgp.Partition", binary)
		}
		ops = append(ops, op)
	}
	m1, err := d.metrics()
	if err != nil {
		return err
	}
	return serverLayerMetrics(d, ops, m0, m1, o)
}
