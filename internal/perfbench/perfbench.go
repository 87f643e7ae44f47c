// Package perfbench is the repo's performance-regression harness: a
// programmatic benchmark runner (built on testing.Benchmark) over a
// fixed, named scenario catalog covering the hot paths the paper's
// claims rest on — the signature/sampling vector algebra of Defs. 4-6,
// the signature pass of the approximate grid division (Sec. 4.3), the
// heuristic matcher of Algorithm 2 (the O(n⁴)→O(n²) claim of
// Sec. 4.4(2)), whole localizations (eq. 6-7 end to end), batched and
// parallel tracking, and the serving round-trip with micro-batching on
// and off.
//
// Every scenario seeds its workload from fixed randx streams, so two
// runs execute byte-identical work and differ only in how fast the
// machine executes it; Compare can therefore diff any two runs. The
// runner adds warmup repetitions (discarded) and N measured
// repetitions per scenario; Compare judges the per-scenario medians
// under noise-tolerant thresholds (fail only beyond a fractional
// regression across ≥ MinReps repetitions), which is what `fttt-perf
// compare` and the CI perf smoke job enforce against
// results/perf/baseline.json.
//
// Key invariants: the scenario set, names, seeds and MapsTo strings are
// append-only stable (the JSON schema fttt-perfbench/v1 is what
// committed baselines are parsed with); scenario setup runs outside the
// timed region; serve-path scenarios record per-operation latency into
// an obs.Histogram so the report carries p50/p99 alongside ns/op.
package perfbench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"fttt/internal/fsx"
	"fttt/internal/obs"
)

// Schema identifies the report wire format; bump only with a migration
// path for committed baselines.
const Schema = "fttt-perfbench/v1"

// Scenario kinds: micro scenarios time one primitive, macro scenarios
// time a user-visible operation end to end.
const (
	KindMicro = "micro"
	KindMacro = "macro"
)

// Scenario is one named benchmark in the catalog. The public fields are
// the stable identity recorded in reports; setup builds the fixtures
// (outside the timed region) and returns the instance to measure.
type Scenario struct {
	// Name identifies the scenario in reports and baselines
	// ("area/name", stable across PRs).
	Name string
	// Kind is KindMicro or KindMacro.
	Kind string
	// Summary says what one benchmark op does.
	Summary string
	// MapsTo names the paper claim / figure / results artifact the
	// scenario exercises (EXPERIMENTS.md cross-reference).
	MapsTo string
	// Seed roots the scenario's deterministic workload.
	Seed uint64

	setup func(sc Scenario) (*instance, error)
}

// instance is a scenario ready to run: fixtures built, op timeable.
type instance struct {
	// op is the benchmark body handed to testing.Benchmark.
	op func(b *testing.B)
	// lat, when non-nil, collects per-op latency for p50/p99.
	lat *latencyRecorder
	// cleanup, when non-nil, tears fixtures down after the last rep.
	cleanup func()
}

// latencyRecorder funnels per-op wall time into an obs.Histogram so the
// report's serve-path percentiles come from the same histogram/quantile
// machinery the telemetry layer exposes at /metrics.
type latencyRecorder struct {
	reg *obs.Registry
	h   *obs.Histogram
}

func newLatencyRecorder() *latencyRecorder {
	reg := obs.NewRegistry()
	// 10µs..~650ms exponential buckets: the serving round-trip sits in
	// the 100µs-10ms band; headroom for loaded CI machines.
	return &latencyRecorder{reg: reg, h: reg.Histogram("perfbench_op_seconds", obs.ExpBuckets(1e-5, 2, 17))}
}

func (l *latencyRecorder) observe(d time.Duration) { l.h.Observe(d.Seconds()) }

// reset discards warmup samples so quantiles cover measured reps only.
func (l *latencyRecorder) reset() { l.reg.Reset() }

func (l *latencyRecorder) quantileNs(q float64) float64 {
	if l.h.Count() == 0 {
		return 0
	}
	return l.h.Quantile(q) * 1e9
}

// ScenarioResult is one scenario's measurements: every repetition's
// ns/op plus the median the compare step judges.
type ScenarioResult struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Seed   uint64 `json:"seed"`
	MapsTo string `json:"mapsTo,omitempty"`

	// Iters[i] and NsPerOp[i] describe measured repetition i.
	Iters   []int     `json:"iters"`
	NsPerOp []float64 `json:"nsPerOp"`
	// MedianNsPerOp is the regression-judged statistic.
	MedianNsPerOp float64 `json:"medianNsPerOp"`
	// BytesPerOp / AllocsPerOp come from the last measured repetition
	// (allocation counts are deterministic on a warmed path).
	BytesPerOp  int64 `json:"bytesPerOp"`
	AllocsPerOp int64 `json:"allocsPerOp"`
	// P50Ns / P99Ns are per-op latency quantiles for scenarios that
	// record them (the serve round-trips); 0 otherwise.
	P50Ns float64 `json:"p50Ns,omitempty"`
	P99Ns float64 `json:"p99Ns,omitempty"`
}

// Report is one full harness run, the unit written to BENCH_PR<N>.json
// and results/perf/baseline.json.
type Report struct {
	Schema      string           `json:"schema"`
	Label       string           `json:"label,omitempty"`
	GoVersion   string           `json:"go"`
	GOOS        string           `json:"goos"`
	GOARCH      string           `json:"goarch"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"numcpu"`
	Reps        int              `json:"reps"`
	BenchTimeNs int64            `json:"benchTimeNs"`
	Scenarios   []ScenarioResult `json:"scenarios"`
}

// Find returns the named scenario result, or nil.
func (r *Report) Find(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// WriteFile marshals the report (indented, trailing newline) to path,
// creating parent directories as needed.
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadFile loads a report and validates its schema tag.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perfbench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perfbench: %s: schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// hostMeta fills the machine/runtime fields of a fresh report.
func hostMeta(r *Report) {
	r.Schema = Schema
	r.GoVersion = runtime.Version()
	r.GOOS = runtime.GOOS
	r.GOARCH = runtime.GOARCH
	r.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.NumCPU = runtime.NumCPU()
}

// median of xs (xs is copied, not reordered); 0 on empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
