// Command bench is the repository's benchmark. It runs four workloads,
// from a one-shot solve to HTTP serving, generates every input from
// -seed, checks every output, and prints one row per metric followed by
// one JSON object. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md explains them. Run it through run.sh,
// which builds it and the distmatchd server from source:
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload churn-pool -seed 3 -seconds 20 -trace 1
//	bash bench/run.sh -compare before.jsonl after.jsonl
//
// An untraced run (-trace 0) reports the end-to-end metrics. A traced run
// (-trace 1) measures the same workload untraced for half the time and
// traced for the other half, reports the per-layer metrics plus the
// tracing overhead, and writes its spans and layers table to -spans.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"solve", runSolve},
	{"churn-pool", runChurnPool},
	{"serve-write", runServeWrite},
	{"serve-read", runServeRead},
}

// config is what one workload run receives.
type config struct {
	seed   uint64
	dur    time.Duration // length of the timed phase
	maxOps int           // also stop after this many primary operations (0 = no limit)
	traced bool          // install telemetry and record spans
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	server    string // distmatchd binary
}

// done reports whether a timed phase that began at start has run its
// course after ops primary operations.
func (c config) done(start time.Time, ops int) bool {
	return (c.maxOps > 0 && ops >= c.maxOps) || time.Since(start) >= c.dur
}

// result is what one workload run measured.
type result struct {
	e2e       map[string]float64 // end-to-end metrics
	layers    map[string]float64 // per-layer metrics (traced runs only)
	mean      float64            // primary-operation mean latency, ms
	attempted int
	failed    int
	errs      []string // failed output checks, in order
	spans     []span
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail records one failed operation or output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) merge(o *result) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// metricValue and outcome are the JSON object printed as the last line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of an -out file: an outcome with its coordinates.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	outcome
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of each timed phase, in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "trace"), "directory for traced runs' spans and layers tables")
	server := fs.String("server", filepath.Join(".bench_build", "distmatchd"), "distmatchd binary for the serve workloads")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	out := fs.String("out", "", "append each workload's result as one JSON line to this file")
	compare := fs.String("compare", "", "compare two -out files: -compare A.jsonl B.jsonl (one file: summarize it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if *compare != "" {
		if fs.NArg() > 1 {
			fmt.Fprintln(stderr, "bench: -compare takes one or two files")
			return 2
		}
		worse, err := runCompare(stdout, sp, *compare, fs.Arg(0))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	cfg := config{
		seed:      *seed,
		dur:       time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		setupReps: 15,
		server:    *server,
	}
	code := 0
	for _, w := range selected {
		res, err := measure(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if cfg.traced {
			if err := writeTrace(*spansDir, w.name, res); err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				return 1
			}
		}
		oc := report(stdout, sp, w.name, cfg.traced, res)
		for _, e := range res.errs {
			fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, e)
		}
		if *out != "" {
			if err := appendRecord(*out, record{w.name, *seed, *trace, oc}); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		line, err := json.Marshal(oc)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !oc.Correct {
			code = 1
		}
	}
	return code
}

// measure runs w once. A traced run measures the workload untraced for
// the first half of its time and traced for the second half, so the
// tracing overhead comes from the same run; its end-to-end metrics are
// not reported.
func measure(w workload, cfg config) (*result, error) {
	if !cfg.traced {
		return w.run(cfg)
	}
	half := cfg
	half.dur /= 2
	half.setupReps = 1
	half.traced = false
	base, err := w.run(half)
	if err != nil {
		return nil, err
	}
	half.traced = true
	res, err := w.run(half)
	if err != nil {
		return nil, err
	}
	res.layers["telemetry.overhead_frac"] = res.mean/base.mean - 1
	res.merge(base)
	return res, nil
}

// report prints one row per metric the spec names for this kind of run
// and returns the outcome. A metric the workload did not produce, or
// produced as NaN or ±Inf, fails the run.
func report(stdout io.Writer, sp *spec, name string, traced bool, res *result) outcome {
	metrics, values := sp.EndToEnd, res.e2e
	if traced {
		metrics, values = sp.PerLayer, res.layers
	}
	oc := outcome{Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.fail("metric %s missing or not finite (%v)", m.Name, v)
			continue
		}
		oc.Metrics[m.Name] = metricValue{v, m.Unit}
		fmt.Fprintf(stdout, "%-12s %-36s %16.6f %s\n", name, m.Name, v, m.Unit)
	}
	oc.Attempted, oc.Failed = res.attempted, res.failed
	oc.Correct = res.failed == 0
	if oc.Attempted < 1 { // nothing ran, so nothing was checked
		oc.Attempted = 1
		oc.Correct = false
	}
	return oc
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// spec is BENCHMARK.json.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads the benchmark definition and checks that it names
// exactly the workloads this program runs.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s names %d workloads, the program runs %d", path, len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program's is %q", path, i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, errors.New(path + " names no metrics")
	}
	return &sp, nil
}
