package rf

import (
	"math"
	"testing"
)

func TestMeanRSSMonotone(t *testing.T) {
	m := Default()
	prev := math.Inf(1)
	for d := 0.5; d <= 200; d += 0.5 {
		rss := m.MeanRSS(d)
		if rss > prev {
			t.Fatalf("MeanRSS not monotone decreasing at d=%v", d)
		}
		prev = rss
	}
}

func TestMeanRSSReference(t *testing.T) {
	m := Default()
	// At d0 = 1 m the log term vanishes.
	if got := m.MeanRSS(1); got != m.P0+m.A {
		t.Errorf("MeanRSS(1) = %v, want %v", got, m.P0+m.A)
	}
	// One decade of distance costs 10β dB.
	if got := m.MeanRSS(1) - m.MeanRSS(10); math.Abs(got-10*m.Beta) > 1e-9 {
		t.Errorf("decade loss = %v, want %v", got, 10*m.Beta)
	}
}

func TestMeanRSSFloorsDistance(t *testing.T) {
	m := Default()
	if got, want := m.MeanRSS(0), m.MeanRSS(m.MinDist); got != want {
		t.Errorf("MeanRSS(0) = %v, want floored %v", got, want)
	}
	if math.IsInf(m.MeanRSS(0), 0) || math.IsNaN(m.MeanRSS(0)) {
		t.Error("MeanRSS(0) must be finite")
	}
}

func TestInvertMeanRSSRoundTrip(t *testing.T) {
	m := Default()
	for _, d := range []float64{0.5, 1, 3, 10, 40, 100} {
		got := m.InvertMeanRSS(m.MeanRSS(d))
		if math.Abs(got-d) > 1e-9*d {
			t.Errorf("round trip d=%v got %v", d, got)
		}
	}
	// Extremely strong signals floor at MinDist.
	if got := m.InvertMeanRSS(1e6); got != m.MinDist {
		t.Errorf("InvertMeanRSS(1e6) = %v, want MinDist", got)
	}
}

func TestUncertaintyC(t *testing.T) {
	m := Default() // β=4, σ=6
	a := math.Ln10 / 40
	want := math.Exp(a*1 + a*a*36)
	if got := m.UncertaintyC(1); math.Abs(got-want) > 1e-12 {
		t.Errorf("C = %v, want %v", got, want)
	}
	if got := m.UncertaintyC(1); got <= 1 {
		t.Errorf("C must exceed 1, got %v", got)
	}
	// C grows with ε and with σ.
	if m.UncertaintyC(2) <= m.UncertaintyC(1) {
		t.Error("C should grow with ε")
	}
	m2 := m
	m2.SigmaX = 12
	if m2.UncertaintyC(1) <= m.UncertaintyC(1) {
		t.Error("C should grow with σ_X")
	}
	// Noise-free, zero-resolution sensing degenerates to C = 1 (certain
	// bisector division).
	m3 := m
	m3.SigmaX = 0
	if got := m3.UncertaintyC(0); got != 1 {
		t.Errorf("C(ε=0, σ=0) = %v, want 1", got)
	}
}

func TestUncertaintyCLowerBetaWiderArea(t *testing.T) {
	// Smaller β makes RSS differences smaller, so uncertainty widens.
	m4 := Default()
	m2 := Default()
	m2.Beta = 2
	if m2.UncertaintyC(1) <= m4.UncertaintyC(1) {
		t.Error("C should be larger for smaller β")
	}
}

func TestValidate(t *testing.T) {
	with := func(edit func(*Model)) Model {
		m := Default()
		edit(&m)
		return m
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	if err := with(func(m *Model) { m.Beta = 0 }).Validate(); err == nil {
		t.Error("β=0 should be rejected")
	}
	if err := with(func(m *Model) { m.Beta = -1 }).Validate(); err == nil {
		t.Error("β<0 should be rejected")
	}
	if err := with(func(m *Model) { m.SigmaX = -1 }).Validate(); err == nil {
		t.Error("σ<0 should be rejected")
	}
	if err := with(func(m *Model) { m.FastFraction = 1.5 }).Validate(); err == nil {
		t.Error("FastFraction > 1 should be rejected")
	}
	m := Default()
	m.MinDist = -1
	if err := m.Validate(); err == nil {
		t.Error("negative MinDist should be rejected")
	}
}
