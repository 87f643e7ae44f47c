package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); !almostEq(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEq(got, 2) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := StdDev([]float64{5}); !almostEq(got, 0) {
		t.Errorf("StdDev single = %v, want 0", got)
	}
	if !math.IsNaN(StdDev(nil)) {
		t.Error("StdDev(nil) should be NaN")
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{3, 4}); !almostEq(got, math.Sqrt(12.5)) {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(nil)) {
		t.Error("RMSE(nil) should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if !math.IsNaN(Min(nil)) || !math.IsNaN(Max(nil)) {
		t.Error("Min/Max of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 5 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("P25 = %v", got)
	}
	// Interpolation.
	if got := Percentile([]float64{0, 10}, 25); !almostEq(got, 2.5) {
		t.Errorf("interp P25 = %v, want 2.5", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
	// Percentile must not mutate its input.
	xs2 := []float64{5, 1, 3}
	Percentile(xs2, 50)
	if xs2[0] != 5 || xs2[1] != 1 || xs2[2] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("Median = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almostEq(s.Mean, 3) || !almostEq(s.Median, 3) ||
		s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(a, b, c float64) bool {
		xs := []float64{a, b, c}
		for _, x := range xs {
			if math.Abs(x) > 1e100 { // avoid sum overflow in the oracle
				return true
			}
		}
		m := Mean(xs)
		tol := 1e-9 * (1 + math.Abs(Min(xs)) + math.Abs(Max(xs)))
		return m >= Min(xs)-tol && m <= Max(xs)+tol
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 5 {
		v := Percentile(xs, p)
		if v < prev-1e-9 {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestBootstrapCI(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 10
	}
	next := func(n int) int { return rng.Intn(n) }
	lo, hi := BootstrapCI(xs, 0.95, 2000, next)
	m := Mean(xs)
	if !(lo < m && m < hi) {
		t.Errorf("CI [%v, %v] should bracket the mean %v", lo, hi, m)
	}
	// 95% CI of a N(10, 2²) mean over 200 samples ≈ ±0.28.
	if hi-lo < 0.2 || hi-lo > 1.5 {
		t.Errorf("CI width %v implausible", hi-lo)
	}
	// Wider level → wider interval.
	lo99, hi99 := BootstrapCI(xs, 0.99, 2000, next)
	if hi99-lo99 <= hi-lo {
		t.Errorf("99%% CI (%v) should be wider than 95%% (%v)", hi99-lo99, hi-lo)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	next := func(n int) int { return 0 }
	if lo, hi := BootstrapCI(nil, 0.95, 100, next); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("empty sample should give NaNs")
	}
	lo, hi := BootstrapCI([]float64{7}, 0.95, 100, next)
	if lo != 7 || hi != 7 {
		t.Errorf("single sample CI = [%v, %v], want [7, 7]", lo, hi)
	}
	// Bad level falls back to 0.95 without panicking.
	lo, hi = BootstrapCI([]float64{1, 2, 3}, 2, 100, next)
	if math.IsNaN(lo) || math.IsNaN(hi) {
		t.Error("bad level should fall back, not NaN")
	}
}
