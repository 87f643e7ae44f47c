// Command benchmark is the repository benchmark. It drives one named
// workload (track-paper, serve-open or ingest-byz) through the layers'
// public APIs, checks every output against a serial reference, and
// prints the result as one JSON object on the last line of standard
// output. With -trace 0 the object carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separate traced phase.
// A human-readable report (sample counts, oracle verdicts, the
// sum-to-total check) goes to standard error.
//
// Run it from the repository root with benchmark/run.sh, which builds
// this module and passes its arguments through:
//
//	bash benchmark/run.sh --workload track-paper --seed 1 --seconds 10 --trace 0
//
// See benchmark/README.md for the workloads, the metric definitions and
// the layer-to-end-to-end prediction table.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings every workload sees.
type options struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	procs   int // nproc: the count of workers, clients or connections
}

// workload is one named workload. run returns an error only when the
// workload could not run at all (set-up failure); wrong answers are
// counted in the result. A serving workload measures its clients and
// its servers on one Go processor (GOMAXPROCS 1): with two, a request's
// handoffs between goroutines woke the other vCPU and the host's wake-up
// latency then set the latency: in a busy host state ingest-byz's p50_ms
// spread 20% of its median over four seeds while track-paper's spread
// 1%. Its oracle replay runs on every CPU again (replayOnAllCPUs).
// Track-paper has no handoffs and runs one processor per CPU throughout.
type workload struct {
	run     func(o options) (*result, error)
	serving bool
}

var workloads = map[string]workload{
	"track-paper": {runTrackPaper, false},
	"serve-open":  {runServeOpen, true},
	"ingest-byz":  {runIngestByz, true},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: track-paper, serve-open or ingest-byz")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured duration in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics; 1 runs the traced phase and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want track-paper, serve-open or ingest-byz)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	procs := runtime.NumCPU()
	gomaxprocs := procs
	if w.serving {
		gomaxprocs = 1
	}
	runtime.GOMAXPROCS(gomaxprocs)
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		procs:   procs,
	}
	fmt.Fprintf(stderr, "benchmark: workload=%s seed=%d seconds=%g trace=%d clients=%d GOMAXPROCS=%d\n",
		*name, o.seed, *seconds, *trace, procs, gomaxprocs)
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	catalog := endToEnd
	if o.traced {
		catalog = perLayer
	}
	line, err := res.encode(catalog)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	res.report(stderr, catalog)
	fmt.Fprintln(stdout, string(line))
	if !res.correct() {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed or were wrong\n", *name, res.failed, res.attempted)
		return 1
	}
	if res.invalid != "" {
		fmt.Fprintf(stderr, "benchmark: %s: run invalid: %s\n", *name, res.invalid)
		return 1
	}
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd and perLayer are the metric catalogs BENCHMARK.json lists;
// TestCatalogMatchesBenchmarkJSON keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"loc_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"error_m", "m"},
	{"allocs_per_loc", "count"},
	{"rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"randx.streams_per_loc", "count"},
	{"randx.derive_us", "us"},
	{"sampling.sample_us", "us"},
	{"sampling.reported_frac", "frac"},
	{"vector.build_us", "us"},
	{"vector.star_frac", "frac"},
	{"match.match_us", "us"},
	{"match.visited_faces", "count"},
	{"match.fallback_frac", "frac"},
	{"core.localize_us", "us"},
	{"core.finish_us", "us"},
	{"core.degraded_frac", "frac"},
	{"core.extrapolated_frac", "frac"},
	{"core.batch_lanes_per_wave", "count"},
	{"core.unattributed_frac", "frac"},
	{"byz.overhead_us", "us"},
	{"byz.suspect_precision", "frac"},
	{"byz.colluder_recall", "frac"},
	{"serve.handler_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.shed_frac", "frac"},
	{"serve.timeout_frac", "frac"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.http_ms", "ms"},
	{"serve.session_create_ms", "ms"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.router_self_ms", "ms"},
	{"field.divide_ms", "ms"},
	{"fieldcache.hit_frac", "frac"},
	{"bench.gen_lag_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// result is one workload run: the operation tally, the measured
// metrics, and notes (sample counts, effective percentiles) for the
// human report.
type result struct {
	attempted int
	failed    int
	// mismatches counts oracle disagreements; they are part of failed.
	mismatches int
	values     map[string]float64
	notes      map[string]string
	// invalid, when set, says why the run cannot be trusted even though
	// every answer was right (the open-loop generator fell behind, or the
	// traced attribution does not add up).
	invalid string
	// lines are extra report lines (oracle, sum-to-total check).
	lines []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64, note string) {
	r.values[name] = v
	if note != "" {
		r.notes[name] = note
	}
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encode renders the final JSON line over catalog. Every catalog metric
// must have been set: a missing one is a benchmark bug, not a result.
func (r *result) encode(catalog []metricDef) ([]byte, error) {
	metrics := make(map[string]metricValue, len(catalog))
	var missing []string
	for _, m := range catalog {
		v, ok := r.values[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
}

// report writes the human-readable summary.
func (r *result) report(w io.Writer, catalog []metricDef) {
	succeeded := r.attempted - r.failed
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "fail_frac = %.6f (attempted %d, succeeded %d, failed %d, oracle mismatches %d)\n",
		frac, r.attempted, succeeded, r.failed, r.mismatches)
	for _, m := range catalog {
		fmt.Fprintf(w, "%-28s %14.6g %-6s %s\n", m.name, r.values[m.name], m.unit, r.notes[m.name])
	}
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
}

var errNoSamples = errors.New("no samples")
