package obs

import (
	"math"
	"sync/atomic"
)

// atomicFloat is a float64 updated through CAS on its bit pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value (float64 so physical
// quantities like joules accumulate exactly as spent).
type Counter struct {
	v atomicFloat
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.add(1) }

// Add increases the counter by v; negative deltas are a caller bug and
// are ignored to keep the counter monotone.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.v.add(v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.v.load() }

func (c *Counter) kind() string { return "counter" }
func (c *Counter) reset()       { c.v.store(0) }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomicFloat
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.store(v) }

// Add increments the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.add(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.load() }

func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) reset()       { g.v.store(0) }

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (ascending); an implicit +Inf bucket catches the tail, so every
// observation lands somewhere.
type Histogram struct {
	bounds []float64       // upper bounds, ascending, +Inf excluded
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomicFloat
	total  atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.add(v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank — the same estimate
// Prometheus' histogram_quantile computes. Observations in the +Inf
// bucket clamp to the highest finite bound. Returns 0 before any
// observation.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank || i == len(h.counts)-1 {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the last finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if c == 0 {
				return hi
			}
			return lo + (hi-lo)*((rank-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

func (h *Histogram) kind() string { return "histogram" }

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.store(0)
	h.total.Store(0)
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
