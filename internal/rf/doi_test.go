package rf

import (
	"math"
	"testing"

	"fttt/internal/randx"
)

func TestNewIrregularityValidation(t *testing.T) {
	rng := randx.New(1)
	if _, err := NewIrregularity(-0.1, 64, rng); err == nil {
		t.Error("negative DOI should fail")
	}
	if _, err := NewIrregularity(0.01, 3, rng); err == nil {
		t.Error("too few sectors should fail")
	}
	if _, err := NewIrregularity(0.01, 64, rng); err != nil {
		t.Errorf("valid irregularity rejected: %v", err)
	}
}

func TestZeroDOIIsIsotropic(t *testing.T) {
	ir, _ := NewIrregularity(0, 64, randx.New(2))
	for theta := 0.0; theta < 7; theta += 0.1 {
		if g := ir.Gain(theta); g != 0 {
			t.Fatalf("DOI=0 gain at θ=%v is %v, want 0", theta, g)
		}
	}
	if ir.MaxGain() != 0 {
		t.Error("MaxGain should be 0")
	}
}

func TestGainZeroMean(t *testing.T) {
	ir, _ := NewIrregularity(0.05, 64, randx.New(3))
	var sum float64
	const n = 3600
	for i := 0; i < n; i++ {
		sum += ir.Gain(2 * math.Pi * float64(i) / n)
	}
	if mean := sum / n; math.Abs(mean) > 0.05 {
		t.Errorf("gain mean %v should be ≈0", mean)
	}
}

func TestGainContinuity(t *testing.T) {
	// Continuity including across the 2π wrap: adjacent directions have
	// bounded gain difference.
	ir, _ := NewIrregularity(0.05, 64, randx.New(4))
	prev := ir.Gain(0)
	for i := 1; i <= 720; i++ {
		theta := 2 * math.Pi * float64(i) / 720
		g := ir.Gain(theta)
		// Half a degree per step; 0.05 dB/deg walk over 5.6°-sectors
		// can change at most ~0.3 dB per half degree after smoothing.
		if math.Abs(g-prev) > 0.5 {
			t.Fatalf("gain jump %.3f at θ=%v", math.Abs(g-prev), theta)
		}
		prev = g
	}
}

func TestGainPeriodic(t *testing.T) {
	ir, _ := NewIrregularity(0.03, 32, randx.New(5))
	for _, theta := range []float64{0.3, 1.5, 4.4} {
		a := ir.Gain(theta)
		b := ir.Gain(theta + 2*math.Pi)
		c := ir.Gain(theta - 2*math.Pi)
		if math.Abs(a-b) > 1e-9 || math.Abs(a-c) > 1e-9 {
			t.Fatalf("gain not 2π-periodic at θ=%v: %v %v %v", theta, a, b, c)
		}
	}
}

func TestHigherDOIMoreAnisotropy(t *testing.T) {
	small, _ := NewIrregularity(0.005, 64, randx.New(6))
	large, _ := NewIrregularity(0.1, 64, randx.New(6))
	if large.MaxGain() <= small.MaxGain() {
		t.Errorf("DOI 0.1 max gain %.3f should exceed DOI 0.005 %.3f",
			large.MaxGain(), small.MaxGain())
	}
}

func TestIrregularityDeterministic(t *testing.T) {
	a, _ := NewIrregularity(0.05, 64, randx.New(7))
	b, _ := NewIrregularity(0.05, 64, randx.New(7))
	for theta := 0.0; theta < 6.28; theta += 0.37 {
		if a.Gain(theta) != b.Gain(theta) {
			t.Fatal("irregularity not reproducible")
		}
	}
}

// MaxGain returns the largest absolute sector gain, a measure of how
// anisotropic this node is.
func (ir *Irregularity) MaxGain() float64 {
	worst := 0.0
	for _, v := range ir.sectors {
		if a := math.Abs(v); a > worst {
			worst = a
		}
	}
	return worst
}
