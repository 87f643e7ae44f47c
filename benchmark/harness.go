package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"fttt/internal/core"
	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/obs"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/serve"
)

// setupReps is how many times each workload builds its program-side
// set-up; setup_s is the median, and only the last build is kept.
const setupReps = 15

// paperConfig is the paper's Table-1 fixture as the perf suite pins it:
// a 100×100 m field with 20 random nodes (deployment seed 6), 2 m
// cells, ε = 1 dBm, k = 5, R = 40 m. It is a fixed fixture, not a
// workload input: the workload seed drives the targets, never the
// deployment.
func paperConfig() core.Config {
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	dep := deploy.Random(fieldRect, 20, randx.New(6))
	return core.Config{
		Field: fieldRect, Nodes: dep.Positions(), Model: rf.Default(),
		Epsilon: 1, SamplingTimes: 5, Range: 40, CellSize: 2,
	}
}

// medianSetup runs build setupReps times, closing every build but the
// last, and returns the last build with the median build time.
func medianSetup[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			closeFn(v)
		}
		last = v
	}
	return last, median(sortedCopy(times)), nil
}

// loopback is an HTTP server on a real 127.0.0.1 listener.
type loopback struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	lb := &loopback{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits for its Serve loop to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := lb.srv.Shutdown(ctx); err != nil {
		lb.srv.Close()
	}
	<-lb.done
}

// newClient returns an HTTP client holding at most conns connections
// per host: the generator side never opens more than nproc.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 60 * time.Second,
	}
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// post sends body to url and returns the status and the response body
// with surrounding whitespace trimmed (the server's JSON encoder ends
// every body with a newline).
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, bytes.TrimSpace(b), nil
}

// wireBytes is the byte form a server writes for an estimate: the
// serial reference side of every oracle.
func wireBytes(target string, seq uint64, est core.Estimate) ([]byte, error) {
	return json.Marshal(serve.WireEstimate(target, seq, est))
}

// regSnap is a point-in-time reading of the registry metrics a traced
// phase differences.
type regSnap struct {
	counters map[string]float64
	hcount   map[string]float64
	hsum     map[string]float64
}

// snapRegistry reads the named counters and histograms from reg. A
// name the program never registered reads as zero (Registry.Counter
// and Histogram are get-or-create).
func snapRegistry(reg *obs.Registry, counters, hists []string) regSnap {
	s := regSnap{counters: map[string]float64{}, hcount: map[string]float64{}, hsum: map[string]float64{}}
	for _, n := range counters {
		s.counters[n] = reg.Counter(n).Value()
	}
	for _, n := range hists {
		h := reg.Histogram(n, nil)
		s.hcount[n] = float64(h.Count())
		s.hsum[n] = h.Sum()
	}
	return s
}

// add accumulates another registry's snapshot (the cluster has one
// registry per backend).
func (s regSnap) add(o regSnap) regSnap {
	out := regSnap{counters: map[string]float64{}, hcount: map[string]float64{}, hsum: map[string]float64{}}
	for _, src := range []regSnap{s, o} {
		for k, v := range src.counters {
			out.counters[k] += v
		}
		for k, v := range src.hcount {
			out.hcount[k] += v
		}
		for k, v := range src.hsum {
			out.hsum[k] += v
		}
	}
	return out
}

// delta is the change from before to s.
func (s regSnap) delta(before regSnap) regSnap {
	out := regSnap{counters: map[string]float64{}, hcount: map[string]float64{}, hsum: map[string]float64{}}
	for k, v := range s.counters {
		out.counters[k] = v - before.counters[k]
	}
	for k, v := range s.hcount {
		out.hcount[k] = v - before.hcount[k]
	}
	for k, v := range s.hsum {
		out.hsum[k] = v - before.hsum[k]
	}
	return out
}

// histMean is the mean observation of a histogram delta (0 when empty).
func (s regSnap) histMean(name string) float64 {
	if s.hcount[name] == 0 {
		return 0
	}
	return s.hsum[name] / s.hcount[name]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Registry names the traced phases read from the program.
const (
	mCoreLocs         = "fttt_core_localizations_total"
	mCoreDegraded     = "fttt_core_degraded_total"
	mCoreExtrapolated = "fttt_core_extrapolated_total"
	mCoreFallbacks    = "fttt_core_matcher_fallbacks_total"
	mCoreStars        = "fttt_core_star_pairs_total"
	mCoreMissing      = "fttt_core_missing_reports_total"
	mCoreWaves        = "fttt_core_batch_waves_total"
	mCoreLanes        = "fttt_core_batch_lanes_total"
	mCoreLatency      = "fttt_core_localize_seconds"
	mCoreVisited      = "fttt_core_matcher_faces_visited"
	mServeShed        = "fttt_serve_shed_total"
	mServeTimeouts    = "fttt_serve_timeouts_total"
	mServeBatch       = "fttt_serve_batch_size"
	mCacheHits        = "fttt_fieldcache_hits_total"
	mCacheMisses      = "fttt_fieldcache_misses_total"
)

func serveRoute(route string) string {
	return `fttt_serve_requests_total{route="` + route + `"}`
}

func serveRouteLatency(route string) string {
	return `fttt_serve_request_seconds{route="` + route + `"}`
}

// backendCounters and backendHists are what a traced phase reads from
// every serve backend for the given route.
func backendCounters(route string) []string {
	return []string{mCoreLocs, mCoreDegraded, mCoreExtrapolated, mCoreFallbacks, mCoreStars,
		mCoreMissing, mCoreWaves, mCoreLanes, mServeShed, mServeTimeouts, mCacheHits, mCacheMisses,
		serveRoute(route)}
}

func backendHists(route string) []string {
	return []string{mCoreLatency, mCoreVisited, mServeBatch, serveRouteLatency(route)}
}

// setBackendLayers fills the per-layer metrics a serve backend's own
// registry delta gives: core outcome ratios, the wave engine's lane
// count, admission outcomes and the handler time. pairs and nodes are
// the session's sampling-vector dimension and node count.
func setBackendLayers(r *result, d regSnap, route string, pairs, nodes int) {
	locs := d.counters[mCoreLocs]
	reqs := d.counters[serveRoute(route)]
	r.set("core.degraded_frac", ratio(d.counters[mCoreDegraded], locs), "")
	r.set("core.extrapolated_frac", ratio(d.counters[mCoreExtrapolated], locs), "")
	r.set("core.batch_lanes_per_wave", ratio(d.counters[mCoreLanes], d.counters[mCoreWaves]),
		fmt.Sprintf("(waves=%.0f)", d.counters[mCoreWaves]))
	r.set("match.visited_faces", d.histMean(mCoreVisited), fmt.Sprintf("(n=%.0f)", d.hcount[mCoreVisited]))
	r.set("match.fallback_frac", ratio(d.counters[mCoreFallbacks], locs), "")
	r.set("vector.star_frac", ratio(d.counters[mCoreStars], locs*float64(pairs)), "")
	r.set("sampling.reported_frac", 1-ratio(d.counters[mCoreMissing], locs*float64(nodes)), "")
	r.set("serve.handler_ms", 1e3*d.histMean(serveRouteLatency(route)),
		fmt.Sprintf("(mean, n=%.0f)", d.hcount[serveRouteLatency(route)]))
	r.set("serve.batch_size", d.histMean(mServeBatch), fmt.Sprintf("(mean, batches=%.0f)", d.hcount[mServeBatch]))
	r.set("serve.shed_frac", ratio(d.counters[mServeShed], reqs), "")
	r.set("serve.timeout_frac", ratio(d.counters[mServeTimeouts], reqs), "")
}

// memProbe brackets a measured phase's heap allocations.
type memProbe struct{ mallocs uint64 }

func startMem() memProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memProbe{ms.Mallocs}
}

func (m memProbe) allocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs - m.mallocs)
}

// rssSampler samples the resident set every rssPeriod while a measured
// phase runs, starting from a forced collection with the freed memory
// returned to the OS, so set-up garbage and input generation do not
// count. It reports the median sample: the phase's maximum follows the
// garbage collector's sawtooth and the scavenger's timing and read up
// to 10% apart on repeated runs of one seed, while the median held
// within 1%.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // bytes; read after done is closed
	err     error
}

const rssPeriod = 20 * time.Millisecond

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssPeriod)
		defer tick.Stop()
		for {
			rss, err := residentBytes()
			if err != nil {
				s.err = err
				return
			}
			s.samples = append(s.samples, rss)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// medianMB stops the sampler and returns the median sample in MB.
func (s *rssSampler) medianMB() (float64, int, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, s.err
	}
	return median(sortedCopy(s.samples)) / (1 << 20), len(s.samples), nil
}

// residentBytes reads the process's current resident set from
// /proc/self/statm (its second field, in pages).
func residentBytes() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("unexpected /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()), nil
}

// measure brackets a measured phase: the allocation count and the
// resident set.
type measure struct {
	mem memProbe
	rss *rssSampler
}

func startMeasure() measure {
	rss := startRSS()
	return measure{mem: startMem(), rss: rss}
}

// stop ends the bracket without reporting it (the traced run).
func (m measure) stop() {
	m.rss.medianMB() //nolint:errcheck // nothing is reported
}

// finish stops the bracket and fills setup_s, allocs_per_loc and
// rss_mb for a phase that completed locs localizations.
func (m measure) finish(r *result, setupS float64, locs int) error {
	allocs := m.mem.allocs()
	rss, n, err := m.rss.medianMB()
	if err != nil {
		return err
	}
	r.set("setup_s", setupS, fmt.Sprintf("(median of %d set-ups)", setupReps))
	r.set("allocs_per_loc", ratio(allocs, float64(locs)), fmt.Sprintf("(whole process, %d localizations)", locs))
	r.set("rss_mb", rss, fmt.Sprintf("(median of %d VmRSS samples, one every %v over the measured phase)", n, rssPeriod))
	return nil
}

// replayOnAllCPUs gives the oracle replay of a serving workload one Go
// processor per CPU again once its measured phases, which run on one,
// are over. The replay's workers time replica calls, and two workers
// sharing one processor charged each other's 10 ms time slices to
// about one call in a hundred, which read as 100 µs of wire decoding
// per request on ingest-byz.
func replayOnAllCPUs(o options) { runtime.GOMAXPROCS(o.procs) }

// traceSlices is how many untraced and how many traced slices a traced
// run alternates, each a twentieth of the measured time. The untraced
// slices are the reference the traced attribution must add up to; host
// speed on a shared VM drifted by a third within a minute, and two
// consecutive halves once failed the sum-to-total check on that drift
// alone, while alternating slices see it alike.
const traceSlices = 10

// traceSlice is the length of one slice of a traced run.
func traceSlice(o options) time.Duration { return o.seconds / (2 * traceSlices) }

// selfTime is one layer's self time on a localization's blocking path.
// A residual is a difference of two timings (a span minus the parts
// timed inside it) rather than a timed call of its own.
type selfTime struct {
	layer    string
	us       float64
	residual bool
}

// maxUnattributed is the sum-to-total tolerance: the traced self times
// must account for the untraced per-localization time within this
// share, or the attribution is not trusted and the run is invalid.
const maxUnattributed = 0.25

// maxNegativeShare is how far below zero, as a share of the total, a
// residual self time may read before it counts as a wrong attribution
// rather than timing noise: a span cannot take less time than the
// calls inside it. Track-paper's sampling residual, the difference of
// two timings each about sixty times larger than itself, has read up
// to 3% of the total below zero.
const maxNegativeShare = 0.05

// sumToTotal sets core.unattributed_frac, the share of the untraced
// per-localization time (totalUs) the traced self times leave
// unexplained (negative when they overshoot). The self times must
// include at least one timed call measured apart from the span it is
// subtracted from, or the sum cancels to the traced total whatever the
// parts are. With enforce set, a share beyond maxUnattributed or a
// residual below −maxNegativeShare of the total marks the run invalid.
func sumToTotal(r *result, self []selfTime, totalUs float64, totalName string, enforce bool) {
	sum := 0.0
	parts := make([]string, len(self))
	var negative []string
	for i, s := range self {
		sum += s.us
		parts[i] = fmt.Sprintf("%s %.1f", s.layer, s.us)
		if s.residual && s.us < -maxNegativeShare*totalUs {
			negative = append(negative, s.layer)
		}
	}
	un := 1 - sum/totalUs
	r.set("core.unattributed_frac", un, "")
	var problems []string
	if math.Abs(un) > maxUnattributed {
		problems = append(problems, fmt.Sprintf("unattributed %.3f beyond ±%.2f", un, maxUnattributed))
	}
	if len(negative) > 0 {
		problems = append(problems, fmt.Sprintf("negative residual self time (%s) beyond %.0f%% of the total",
			strings.Join(negative, ", "), 100*maxNegativeShare))
	}
	verdict := "pass"
	switch {
	case len(problems) == 0:
	case enforce:
		verdict = "FAIL"
		r.invalid = "sum-to-total check failed: " + strings.Join(problems, "; ")
	default:
		verdict = "off (reported, not enforced): " + strings.Join(problems, "; ")
	}
	r.logf("sum-to-total %s: self times %.1f µs (%s) vs %s %.1f µs; unattributed %.3f",
		verdict, sum, strings.Join(parts, ", "), totalName, totalUs, un)
}

// setAbsent records metrics of layers a workload never reaches as 0.
func setAbsent(r *result, note string, names ...string) {
	for _, n := range names {
		r.set(n, 0, note)
	}
}

// closedLoopKeep is the share of a closed loop's fastest operations
// whose mean latency sets loc_per_s. The host stalls the VM for
// milliseconds at a time; a stall lands on the few operations in
// flight, and in a busy host state the whole-phase rate with them
// spread 44% of its median over four seeds while the median latency
// held within 2%. Dropping the slowest 5% keeps the stalls out and the rest of the
// tail in.
const closedLoopKeep = 0.95

// setClosedLoopE2E fills the rate and latency metrics of a closed-loop
// phase from its samples: p50_ms is the median latency and loc_per_s
// the clients' rate at the trimmed mean latency. The whole-phase rate
// and the tail go to the report.
func setClosedLoopE2E(r *result, ms latencies, wall time.Duration, what string, clients int) error {
	s, err := summarize(ms)
	if err != nil {
		return err
	}
	tm, kept := trimmedMean(sortedCopy(ms), closedLoopKeep)
	r.set("loc_per_s", float64(clients)*1e3/tm, fmt.Sprintf("(%d clients ÷ %.4f ms, the mean latency of the fastest %d of %d %s)",
		clients, tm, kept, len(ms), what))
	r.set("p50_ms", s.p50, s.p50Note)
	r.logf("closed loop: %d %s in %.3f s from %d clients (%.1f/s over the whole phase); p99 %.3f ms %s",
		len(ms), what, wall.Seconds(), clients, float64(len(ms))/wall.Seconds(), s.p99.value, s.p99Note)
	return nil
}

// digestWire is a 64-bit FNV-1a digest over every field of a wire
// estimate, floats by their bits: equal digests mean byte-identical
// JSON bodies. It allocates nothing, so it does not disturb the
// allocs_per_loc count of the loop that calls it.
func digestWire(ew serve.EstimateWire) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(ew.Target); i++ {
		h = (h ^ uint64(ew.Target[i])) * fnvPrime
	}
	h = fnvWord(h, ew.Seq)
	for _, f := range [...]float64{ew.X, ew.Y, ew.Similarity, ew.Confidence, ew.StarFraction} {
		h = fnvWord(h, math.Float64bits(f))
	}
	for _, n := range [...]int{ew.FaceID, ew.Reported, ew.Stars, ew.Flipped, ew.Visited} {
		h = fnvWord(h, uint64(n))
	}
	for i, f := range [...]bool{ew.Exact, ew.FellBack, ew.Degraded, ew.Retried, ew.Extrapolated} {
		if f {
			h = fnvWord(h, uint64(i+1))
		}
	}
	return h
}

// fnvBytes is the 64-bit FNV-1a digest of b.
func fnvBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds the eight bytes of v into the FNV-1a state h.
func fnvWord(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// outcomeTally counts the estimate outcomes the per-layer ratios read.
type outcomeTally struct {
	n                                int
	stars, visited                   float64
	degraded, extrapolated, fellBack int
}

func (o *outcomeTally) add(e core.Estimate) {
	o.n++
	o.stars += e.StarFraction()
	o.visited += float64(e.Visited)
	if e.Degraded {
		o.degraded++
	}
	if e.Extrapolated {
		o.extrapolated++
	}
	if e.FellBack {
		o.fellBack++
	}
}

func (o *outcomeTally) merge(p outcomeTally) {
	o.n += p.n
	o.stars += p.stars
	o.visited += p.visited
	o.degraded += p.degraded
	o.extrapolated += p.extrapolated
	o.fellBack += p.fellBack
}

// set fills the per-layer outcome ratios.
func (o outcomeTally) set(r *result) {
	n := float64(o.n)
	r.set("vector.star_frac", o.stars/n, "")
	r.set("match.visited_faces", o.visited/n, fmt.Sprintf("(n=%d)", o.n))
	r.set("match.fallback_frac", float64(o.fellBack)/n, "")
	r.set("core.degraded_frac", float64(o.degraded)/n, "")
	r.set("core.extrapolated_frac", float64(o.extrapolated)/n, "")
}
