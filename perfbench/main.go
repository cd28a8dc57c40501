// Command perfbench is the repository benchmark: three serving
// workloads over one seeded Retailer database, each loading a different
// layer of the stack, with a correctness check at the end of every run.
// See README.md for the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rows sizes the Inventory base table; window is the stream's
	// delete window in insert steps; setups is how many times set-up is
	// repeated for setup_s. Tests shrink all three.
	rows, window, setups int
	// corrupt perturbs the expected model, so the run must fail its
	// correctness check.
	corrupt bool
	// workDir holds WAL directories and the span log.
	workDir string
}

// workloads maps each name to its run. Each loads a different layer
// (see README.md): firehose the view-tree maintenance core, live-models
// the per-publish model refit, wire-cluster the HTTP, router and WAL
// layers.
var workloads = map[string]func(o options, tr *tracer) (*outcome, error){
	"retailer-firehose":     runFirehose,
	"retailer-live-models":  runLiveModels,
	"retailer-wire-cluster": runWireCluster,
}

// unit of each reported metric.
var units = map[string]string{
	"setup_s":           "s",
	"updates_per_s":     "1/s",
	"cpu_us_per_update": "us",
	"freshness_p50_ms":  "ms",
	"freshness_p99_ms":  "ms",
	"read_p50_us":       "us",
	"read_p99_us":       "us",
	"heap_mb":           "MiB",
	"recover_s":         "s",
}

// endToEnd lists the untraced metrics in report order.
var endToEnd = []string{
	"setup_s", "updates_per_s", "cpu_us_per_update", "freshness_p50_ms", "read_p50_us", "heap_mb", "recover_s",
}

// untracedTails are end-to-end tails reported only with --trace 1, from
// its untraced run: their spread across seeds is too wide for a bound.
var untracedTails = []string{"freshness_p99_ms", "read_p99_us"}

// outcome is what one run measured.
type outcome struct {
	attempted int64
	// failures counts failed or refused operations by class.
	failures map[string]int64
	e2e      map[string]float64
	layer    map[string]float64
	notes    []string
}

func (o *outcome) failed() int64 {
	var n int64
	for _, v := range o.failures {
		n += v
	}
	return n
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	o := options{rows: 100_000, window: defaultWindow, setups: 3, workDir: filepath.Join(".bench_build", "perfbench-work")}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the database and the update stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs untraced, then traced, and reports per-layer metrics")
	flag.BoolVar(&o.corrupt, "corrupt-expected", false, "perturb the expected model (the run must then fail)")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// run executes one invocation: an untraced run, and with trace set a
// traced run after it whose per-layer metrics are reported.
func run(o options) (*resultJSON, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 || o.rows < 1000 || o.window < 1 || o.setups < 1 {
		return nil, fmt.Errorf("bad sizes: seconds=%v rows=%d window=%d setups=%d", o.seconds, o.rows, o.window, o.setups)
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	o.workDir = filepath.Join(dir, "untraced")
	plain, err := w(o, nil)
	if err != nil {
		return nil, err
	}
	report(o.workload, "untraced", plain)
	res := &resultJSON{Correct: true, Attempted: plain.attempted, Failed: plain.failed(), Metrics: map[string]metricJSON{}}
	if !o.trace {
		for _, n := range endToEnd {
			res.Metrics[n] = metricJSON{Value: plain.e2e[n], Unit: units[n]}
		}
		return res, nil
	}

	tr := newTracer()
	o.workDir = filepath.Join(dir, "traced")
	traced, err := w(o, tr)
	if err != nil {
		return nil, err
	}
	traced.layer["trace.overhead_ratio"] = ratio(traced.e2e["updates_per_s"], plain.e2e["updates_per_s"])
	for _, n := range untracedTails {
		traced.layer[n] = plain.e2e[n]
	}
	report(o.workload, "traced", traced)
	spanLog := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := tr.write(spanLog); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "spans written to %s\n", spanLog)
	res.Attempted += traced.attempted
	res.Failed += traced.failed()
	for _, m := range perLayer {
		res.Metrics[m.name] = metricJSON{Value: traced.layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// report prints a run's metrics and notes to standard error.
func report(name, mode string, o *outcome) {
	fmt.Fprintf(os.Stderr, "== %s (%s): attempted=%d failed=%d %v\n", name, mode, o.attempted, o.failed(), o.failures)
	for _, n := range append(endToEnd, untracedTails...) {
		fmt.Fprintf(os.Stderr, "  %-20s %14.4f %s\n", n, o.e2e[n], units[n])
	}
	if len(o.layer) > 0 {
		for _, m := range perLayer {
			fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", m.name, o.layer[m.name], m.unit)
		}
	}
	for _, n := range o.notes {
		fmt.Fprintf(os.Stderr, "  note: %s\n", n)
	}
}

// since reports the elapsed wall time from t0 in seconds.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
