// Command bench is the repository benchmark. It runs one workload —
// the paper's pipeline (pipeline), uncached HNSW reads (serve-read) or
// durable mixed reads and writes over two in-process shards
// (serve-mixed) — on inputs it generates from -seed, checks that the
// outputs are correct, and prints one JSON result as the last line of
// standard output. An untraced run (-trace 0) reports the end-to-end
// metrics; a traced run (-trace 1) reports the per-layer breakdown.
// See README.md for the workloads, the metrics and how to read a
// breakdown.
//
//	bash bench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// run carries one benchmark invocation's settings and what it has
// measured so far.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // scratch directory for bundles and WAL, inside the checkout

	attempted, failed int64
	metrics           map[string]metricValue
	checks            []check
	detail            map[string]any // sample counts and other context for the report
	spans             []span         // traced runs only
}

// set records a metric; the unit comes from the catalog. A value that
// is not a finite number fails the run instead of being reported.
func (r *run) set(name string, v float64) {
	spec, err := lookupMetric(name)
	if err != nil {
		panic(err) // a misspelt metric name is a bug in this program
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.expect("measured/"+name, false, "%s came out as %g", name, v)
		return
	}
	r.metrics[name] = metricValue{Value: v, Unit: spec.unit}
}

// expect records a correctness check.
func (r *run) expect(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// note records context for the run report.
func (r *run) note(key string, v any) { r.detail[key] = v }

// complete leaves exactly the run's kind of metrics: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
// A layer the workload does not run reads 0; a metric the workload
// should have measured and did not fails the run.
func (r *run) complete() {
	var notRun []string
	for _, m := range catalog {
		_, ok := r.metrics[m.name]
		switch {
		case m.e2e == r.traced:
			delete(r.metrics, m.name)
		case ok:
		case m.runsOn(r.workload):
			r.expect("reported/"+m.name, false, "%s was not measured", m.name)
		default:
			r.metrics[m.name] = metricValue{Value: 0, Unit: m.unit}
			notRun = append(notRun, m.name)
		}
	}
	if len(notRun) > 0 {
		r.note("layers_not_run", notRun)
	}
}

func (r *run) correct() bool {
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return len(r.checks) > 0
}

var workloads = map[string]func(*run) error{
	"pipeline":    runPipeline,
	"serve-read":  func(r *run) error { return runServe(r, serveRead) },
	"serve-mixed": func(r *run) error { return runServe(r, serveMixed) },
}

func main() {
	var (
		workload = flag.String("workload", "", "pipeline, serve-read or serve-mixed")
		seed     = flag.Uint64("seed", 1, "input seed: the same seed generates the same graph, store and request sequence")
		seconds  = flag.Float64("seconds", 20, "measurement length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		report   = flag.String("report", "", "write the full run report here (default .bench_build/runs/<workload>-<seed>-<trace>.json)")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench --workload pipeline|serve-read|serve-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := rootCheck(); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fatal(fmt.Errorf("scratch directory: %w", err))
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir,
		metrics: map[string]metricValue{}, detail: map[string]any{},
	}
	env := environment(r.seed)
	start := time.Now()
	runErr := fn(r)
	os.RemoveAll(dir)
	if runErr != nil {
		fatal(fmt.Errorf("%s: %w", r.workload, runErr))
	}
	if r.traced {
		r.set("env.calibration_ms", env.CalibrationMs)
	} else {
		r.set("peak_rss_mb", peakRSSMB())
	}
	r.complete()
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
	path := *report
	if path == "" {
		path = filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d.json", r.workload, r.seed, *trace))
	}
	if err := writeReport(path, r, env, res, time.Since(start)); err != nil {
		fatal(err)
	}
	for _, c := range r.checks {
		if !c.OK {
			fmt.Fprintf(os.Stderr, "bench: check %s failed: %s\n", c.Name, c.Detail)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// rootCheck makes sure the working directory is the checkout root the
// benchmark was built from: every path it writes is relative to it.
func rootCheck() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run from the repository root (go.mod not found): %w", err)
	}
	return os.MkdirAll(".bench_build", 0o755)
}

// writeReport writes the run report: environment, result, checks,
// sample counts, and for traced runs every recorded span.
func writeReport(path string, r *run, env env, res result, wall time.Duration) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"workload":    r.workload,
		"seed":        r.seed,
		"seconds":     r.seconds,
		"traced":      r.traced,
		"wall_s":      wall.Seconds(),
		"environment": env,
		"result":      res,
		"checks":      r.checks,
		"detail":      r.detail,
	}
	if r.traced {
		doc["spans"] = r.spans
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// procs is the benchmark's concurrency budget: connections, training
// workers and GOMAXPROCS never exceed the machine's CPU count.
func procs() int { return runtime.NumCPU() }
