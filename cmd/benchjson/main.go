// Command benchjson converts `go test -bench` output read from stdin into a
// JSON benchmark record, seeding the repo's performance trajectory files
// (BENCH_*.json). Standard benchmark lines look like
//
//	BenchmarkMultilevelVsDirect-8   1   86933661 ns/op   0.88 locality_direct   3.1 speedup
//
// i.e. a name, an iteration count, then value/unit pairs; everything else
// (headers, PASS/ok lines) is passed through to stderr untouched.
//
// Repeated lines of one benchmark (go test -count N) fold into a single
// record: each metric is the median of its samples, runs is the number of
// samples, and spread holds each metric's min and max. Gates key records by
// name, so without the fold the last sample would silently win.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkMultilevel' -benchtime 1x -count 3 . | go run ./cmd/benchjson -out BENCH_multilevel.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Record is one benchmark result: every reported metric (ns/op, MB/s, and
// b.ReportMetric custom units) keyed by unit, as the median over Runs
// samples, with the samples' range in Spread. GOMAXPROCS is the -N suffix of
// the benchmark name (0 when the name has none).
type Record struct {
	Name       string             `json:"name"`
	Runs       int64              `json:"runs"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Spread     map[string]MinMax  `json:"spread"`
}

// MinMax is the range of one metric's samples.
type MinMax struct {
	Min float64 `json:"min"`
	Max float64 `json:"max"`
}

// sample is one parsed benchmark line.
type sample struct {
	name       string
	gomaxprocs int
	metrics    map[string]float64
}

func main() {
	out := flag.String("out", "", "output JSON file (default stdout)")
	flag.Parse()

	var samples []sample
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		s, ok := parseBenchLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines found on stdin")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(fold(samples), "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBenchLine decodes one "BenchmarkName-P  N  v unit  v unit ..." line.
func parseBenchLine(line string) (sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return sample{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return sample{}, false
	}
	s := sample{name: fields[0], metrics: map[string]float64{}}
	// Strip the -GOMAXPROCS suffix if present.
	if i := strings.LastIndex(s.name, "-"); i > 0 {
		if p, err := strconv.Atoi(s.name[i+1:]); err == nil {
			s.name, s.gomaxprocs = s.name[:i], p
		}
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, false
		}
		s.metrics[fields[i+1]] = v
	}
	if len(s.metrics) == 0 {
		return sample{}, false
	}
	return s, true
}

// fold merges the samples of each benchmark into one record, in order of
// first appearance. Samples taken at different GOMAXPROCS (go test -cpu)
// stay separate records. A metric missing from some samples is the median
// of the samples that report it.
func fold(samples []sample) []Record {
	type key struct {
		name       string
		gomaxprocs int
	}
	var keys []key
	groups := map[key][]sample{}
	for _, s := range samples {
		k := key{s.name, s.gomaxprocs}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], s)
	}
	records := make([]Record, 0, len(keys))
	for _, k := range keys {
		group := groups[k]
		values := map[string][]float64{}
		for _, s := range group {
			for unit, v := range s.metrics {
				values[unit] = append(values[unit], v)
			}
		}
		rec := Record{
			Name:       k.name,
			Runs:       int64(len(group)),
			GOMAXPROCS: k.gomaxprocs,
			Metrics:    map[string]float64{},
			Spread:     map[string]MinMax{},
		}
		for unit, vs := range values {
			slices.Sort(vs)
			rec.Metrics[unit] = median(vs)
			rec.Spread[unit] = MinMax{Min: vs[0], Max: vs[len(vs)-1]}
		}
		records = append(records, rec)
	}
	return records
}

// median returns the middle of sorted, non-empty vs (the mean of the two
// middle values for an even count).
func median(vs []float64) float64 {
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}
