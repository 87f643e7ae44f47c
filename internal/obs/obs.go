// Package obs is the zero-dependency telemetry layer: named counters,
// gauges and fixed-bucket histograms in a concurrency-safe Registry,
// plus the structured flight recorder (Recorder, trace.go) that
// instrumented components (core, wsnnet, pipeline, serve) write spans
// and events into when one is attached.
//
// Design rules:
//
//   - Nil is off. Every instrumented component treats a nil *Registry or
//     nil *Recorder as "telemetry disabled" and skips all bookkeeping; the
//     nil fast path is a pointer check (BenchmarkLocalizeInstrumented
//     proves < 5% overhead on the localization hot path).
//   - Metric handles are resolved once, at component construction, never
//     per operation: the hot path only touches atomics.
//   - Export is pull-based: Snapshot() captures a consistent view that
//     WriteTo renders in the Prometheus text exposition format, and
//     Serve exposes it over HTTP together with expvar and pprof.
//
// Metric names follow the Prometheus convention
// fttt_<component>_<quantity>_<unit>; an optional {label="value"} suffix
// on the name creates a labelled series within the same family (used for
// per-mote energy). DESIGN.md §"Telemetry" indexes every metric the
// tree emits and maps each to the paper figure it reproduces.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a named collection of metrics. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// metric is the union of the three instrument kinds.
type metric interface {
	// kind is the Prometheus TYPE of the metric ("counter", "gauge",
	// "histogram").
	kind() string
	// reset zeroes the metric's observations, keeping its identity.
	reset()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Counter returns the counter registered under name, creating it on
// first use. It panics if name is already registered as another kind —
// metric names are a package-level namespace, so a clash is a
// programming error.
func (r *Registry) Counter(name string) *Counter {
	m := r.getOrCreate(name, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a %s", name, m.kind()))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Panics on a kind clash, like Counter.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.getOrCreate(name, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a %s", name, m.kind()))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (ascending; +Inf is implicit) on
// first use. Later calls ignore buckets and return the existing
// histogram. Panics on a kind clash, like Counter.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	m := r.getOrCreate(name, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a %s", name, m.kind()))
	}
	return h
}

func (r *Registry) getOrCreate(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Reset zeroes every registered metric's observations while keeping the
// metrics themselves (handles held by instrumented components stay
// valid). cmd/fttt-bench uses it to isolate per-figure dumps.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		m.reset()
	}
}

// names returns the registered metric names sorted for deterministic
// export.
func (r *Registry) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// get returns the metric registered under name, or nil.
func (r *Registry) get(name string) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.metrics[name]
}
