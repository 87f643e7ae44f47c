package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fttt_test_total")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("fttt_test_total"); again != c {
		t.Fatal("Counter should return the registered instance")
	}
	g := r.Gauge("fttt_test_gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %v, want 5", got)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("fttt_clash")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering a gauge over a counter")
		}
	}()
	r.Gauge("fttt_clash")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("fttt_test_seconds", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 105 {
		t.Fatalf("sum = %v, want 105", h.Sum())
	}
	// Median rank 2 falls at the end of the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("median = %v, want within (1,2]", q)
	}
	// The +Inf bucket clamps to the last finite bound.
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("q1 = %v, want 4", q)
	}
	if q := h.Quantile(0.5); q <= 0 {
		t.Fatalf("quantile should be positive, got %v", q)
	}
	var empty Histogram
	if q := (&empty).Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestSnapshotPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("fttt_core_localizations_total").Add(3)
	r.Gauge("fttt_net_dead_motes").Set(2)
	h := r.Histogram("fttt_core_localize_seconds", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	r.Gauge(`fttt_net_mote_energy_joules{mote="0"}`).Set(1.5)
	r.Gauge(`fttt_net_mote_energy_joules{mote="1"}`).Set(2.5)

	var b strings.Builder
	if _, err := r.Snapshot().WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wants := []string{
		"# TYPE fttt_core_localizations_total counter",
		"fttt_core_localizations_total 3",
		"# TYPE fttt_core_localize_seconds histogram",
		`fttt_core_localize_seconds_bucket{le="0.001"} 1`,
		`fttt_core_localize_seconds_bucket{le="+Inf"} 2`,
		"fttt_core_localize_seconds_sum 0.5005",
		"fttt_core_localize_seconds_count 2",
		"# TYPE fttt_net_dead_motes gauge",
		`fttt_net_mote_energy_joules{mote="0"} 1.5`,
		`fttt_net_mote_energy_joules{mote="1"} 2.5`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot missing %q\n--- got ---\n%s", want, out)
		}
	}
	// One TYPE line per family even with several labelled series.
	if n := strings.Count(out, "# TYPE fttt_net_mote_energy_joules"); n != 1 {
		t.Errorf("mote energy family has %d TYPE lines, want 1", n)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("fttt_reset_total")
	h := r.Histogram("fttt_reset_hist", []float64{1})
	c.Inc()
	h.Observe(0.5)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("reset left values: counter=%v hist count=%d sum=%v",
			c.Value(), h.Count(), h.Sum())
	}
	if r.Counter("fttt_reset_total") != c {
		t.Fatal("reset must keep metric identity")
	}
}

// TestConcurrent hammers every metric kind from many goroutines while
// snapshots are taken; run with -race this is the data-race gate for the
// whole package.
func TestConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("fttt_conc_total")
			g := r.Gauge("fttt_conc_gauge")
			h := r.Histogram("fttt_conc_hist", []float64{1, 10, 100})
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 150))
				if i%500 == 0 {
					r.Snapshot().WriteTo(io.Discard)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("fttt_conc_total").Value(); got != workers*iters {
		t.Fatalf("counter = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("fttt_conc_hist", nil).Count(); got != workers*iters {
		t.Fatalf("hist count = %d, want %d", got, workers*iters)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	r.Counter("fttt_http_total").Add(9)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "fttt_http_total 9") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/debug/vars"); !strings.Contains(out, "memstats") {
		t.Errorf("/debug/vars missing memstats")
	}
	if out := get("/debug/pprof/"); !strings.Contains(out, "goroutine") {
		t.Errorf("/debug/pprof/ index missing goroutine profile")
	}
}
