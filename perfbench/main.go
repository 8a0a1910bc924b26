// Command perfbench is evotree's repository benchmark. It drives the
// library's public entry points from outside the program — it never
// patches or instruments the code under test — and reports, for one
// workload per invocation, either the end-to-end metrics (-trace 0) or
// the per-layer metrics of a traced run (-trace 1). See README.md for the
// workloads, the metric definitions and which layer metric is expected to
// move which end-to-end metric.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload exact|decompose|web|farm -seed N -seconds S -trace 0|1
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it records
// the environment and the run's details. A failed correctness check
// prints the result with "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workers is the solver-worker, pool-worker and connection count of every
// workload: the benchmark host has two CPUs, and load never exceeds them.
const workers = 2

// Within a pass of exact or farm, an instance is solved again while its
// solves in the pass have taken less than repBudget, at most maxReps
// times, so that instances of milliseconds get more samples than the
// pass's one solve of a multi-second instance would give them.
const (
	repBudget = 150 * time.Millisecond
	maxReps   = 4
)

// setupRepeats is how many times an end-to-end run sets its workload up;
// setup_s is the median, so a one-off stall does not decide it.
const setupRepeats = 5

// A runner is one set-up workload. run measures for d and returns the
// run's samples; close releases servers and farms.
type runner interface {
	run(d time.Duration, tr *tracer) (*measurement, error)
	close()
}

// A workload sets itself up from a seed; BENCHMARK.json and README.md say
// why each one is in the benchmark.
type workload func(seed int64) (runner, error)

var workloads = map[string]workload{
	"exact":     setupExact,
	"decompose": setupDecompose,
	"web":       setupWeb,
	"farm":      setupFarm,
}

// measurement is what one measured phase of a workload yields.
type measurement struct {
	// solveS is the end-to-end solve_s of the phase (see README.md).
	solveS float64
	// latMS are the latencies behind latency_ms_p50: per-instance medians
	// where instances repeat, per-request latencies on web.
	latMS []float64
	// instMS are the per-instance medians summed into solveS (none on web).
	instMS []float64
	// costRatio is Σ tree cost / Σ UPGMM cost over the phase's outputs.
	costRatio float64
	// attempted and failed count operations; failed covers non-200
	// answers and node-budget truncations.
	attempted, failed int64
	// layer holds the per-layer metrics the phase can give.
	layer map[string]float64
	// samples holds every timed operation by kind (seq_ms, hit_ms, ...),
	// reported in the detail line as a timing summary.
	samples map[string][]float64
	// checks lists failed output checks; any entry makes the run incorrect.
	checks []string
}

func newMeasurement() *measurement {
	return &measurement{layer: map[string]float64{}, samples: map[string][]float64{}}
}

func (m *measurement) sample(kind string, v float64) {
	m.samples[kind] = append(m.samples[kind], v)
}

func (m *measurement) fail(format string, args ...any) {
	if len(m.checks) < 20 {
		m.checks = append(m.checks, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is recorded in every report (the detail line).
type environment struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Trace          bool    `json:"trace"`
	NumCPU         int     `json:"num_cpu"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	Workers        int     `json:"workers"`
	Oversubscribed bool    `json:"oversubscribed"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: exact, decompose, web or farm")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (exact|decompose|web|farm), -seconds > 0, -trace 0|1\n")
		return 2
	}
	env := environment{
		Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workers: workers,
		Oversubscribed: workers > runtime.GOMAXPROCS(0),
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	var detail map[string]any
	var err error
	if *trace == 1 {
		res, detail, err = traced(*name, w, *seed, d)
	} else {
		res, detail, err = untraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	detail["env"] = env
	line, err := json.Marshal(detail)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced sets the workload up setupRepeats times, keeps the last set-up
// and measures it for d with tracing off.
func untraced(w workload, seed int64, d time.Duration) (*result, map[string]any, error) {
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		if r, err = w(seed); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()
	m, err := r.run(d, nil)
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"solve_s":        m.solveS,
		"latency_ms_p50": median(m.latMS),
		"cost_ratio":     m.costRatio,
		"max_rss_mb":     maxRSSMB(),
	}
	timings := summarize(m.samples)
	timings["setup_s"] = summary(setups)
	detail := map[string]any{
		"setup_runs_s":  setups,
		"instance_ms":   m.instMS,
		"timings":       timings,
		"checks_failed": m.checks,
	}
	return report(endToEnd, vals, m), detail, nil
}

// traced sets the workload up once, measures half of d untraced and half
// traced, writes the spans under .bench_build/trace, and derives the
// per-layer metrics from the two phases and the spans.
func traced(name string, w workload, seed int64, d time.Duration) (*result, map[string]any, error) {
	r, err := w(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer r.close()
	plain, err := r.run(d/2, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	m, err := r.run(d/2, tr)
	if err != nil {
		return nil, nil, err
	}
	m.checks = append(plain.checks, m.checks...)
	m.attempted += plain.attempted
	m.failed += plain.failed
	// A metric both halves give is taken from the untraced half.
	vals := map[string]float64{}
	for k, v := range m.layer {
		vals[k] = v
	}
	for k, v := range plain.layer {
		vals[k] = v
	}
	if plain.solveS > 0 && m.solveS > 0 {
		vals["trace_overhead_frac"] = m.solveS/plain.solveS - 1
	}
	if m.attempted > 0 {
		vals["failed_frac"] = float64(m.failed) / float64(m.attempted)
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := tr.write(path); err != nil {
		return nil, nil, err
	}
	detail := map[string]any{
		"trace_file":    path,
		"spans":         len(tr.spans),
		"self_ms":       tr.selfMS(),
		"timings":       summarize(plain.samples),
		"checks_failed": m.checks,
	}
	return report(perLayer, vals, m), detail, nil
}

// timing summarises one kind of timed operation: the median, the highest
// of the tail percentiles with at least ten samples beyond it (omitted
// when there are too few samples), and the sample count.
type timing struct {
	Median    float64 `json:"median"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	Samples   int     `json:"samples"`
}

// tailPercentiles are the candidates for timing.Tail, highest first; one
// sample in every `beyond` lies above the percentile.
var tailPercentiles = []struct {
	name   string
	q      float64
	beyond int
}{{"p99.9", 0.999, 1000}, {"p99", 0.99, 100}, {"p95", 0.95, 20}, {"p90", 0.9, 10}, {"p75", 0.75, 4}}

func summary(v []float64) timing {
	t := timing{Median: median(v), Samples: len(v)}
	for _, p := range tailPercentiles {
		if len(v) >= 10*p.beyond {
			t.Tail, t.TailValue = p.name, quantile(v, p.q)
			break
		}
	}
	return t
}

func summarize(samples map[string][]float64) map[string]timing {
	out := map[string]timing{}
	for k, v := range samples {
		out[k] = summary(v)
	}
	return out
}

// report renders every metric of the catalog; a per-layer metric the
// workload does not exercise reads 0 (README.md lists where each applies).
func report(catalog []metricDef, vals map[string]float64, m *measurement) *result {
	res := &result{
		Correct:   len(m.checks) == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
	for _, def := range catalog {
		res.Metrics[def.name] = metric{Value: vals[def.name], Unit: def.unit}
	}
	return res
}

// maxRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
