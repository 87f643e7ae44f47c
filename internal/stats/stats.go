// Package stats provides the summary statistics used by the evaluation
// harness: means, standard deviations, percentiles and per-trial series
// aggregation for the error plots of Sec. 7.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or NaN for an
// empty slice.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// RMSE returns the root mean square of xs (the RMS error when xs are
// per-point tracking errors), or NaN for an empty slice.
func RMSE(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x * x
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Min returns the smallest element, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between order statistics, or NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Summary bundles the descriptive statistics of one sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	RMSE   float64
	Min    float64
	Median float64
	P90    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		RMSE:   RMSE(xs),
		Min:    Min(xs),
		Median: Median(xs),
		P90:    Percentile(xs, 90),
		Max:    Max(xs),
	}
}

// BootstrapCI returns a percentile bootstrap confidence interval for the
// mean of xs at the given confidence level (e.g. 0.95), using resamples
// drawn from the deterministic source next (a func returning uniform
// ints in [0, n), e.g. from a seeded randx.Stream). It returns NaNs for
// an empty sample and the point mean twice for a single observation.
func BootstrapCI(xs []float64, level float64, resamples int, next func(n int) int) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	if len(xs) == 1 || resamples < 2 {
		m := Mean(xs)
		return m, m
	}
	if level <= 0 || level >= 1 {
		level = 0.95
	}
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[next(len(xs))]
		}
		means[b] = sum / float64(len(xs))
	}
	alpha := (1 - level) / 2 * 100
	return Percentile(means, alpha), Percentile(means, 100-alpha)
}
