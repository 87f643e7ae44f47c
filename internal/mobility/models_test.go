package mobility

import (
	"math"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

func TestRandomWaypointPauseStaysInField(t *testing.T) {
	m := RandomWaypointPause(field, 1, 5, 10, 120, randx.New(1))
	for _, tp := range Sample(m, 120, 5) {
		if !field.Contains(tp.Pos) {
			t.Fatalf("t=%v position %v outside field", tp.T, tp.Pos)
		}
	}
}

func TestRandomWaypointPauseActuallyPauses(t *testing.T) {
	m := RandomWaypointPause(field, 1, 5, 20, 200, randx.New(2))
	trace := Sample(m, 200, 10)
	stationary := 0
	for i := 1; i < len(trace); i++ {
		if trace[i].Pos.Dist(trace[i-1].Pos) < 1e-9 {
			stationary++
		}
	}
	if stationary == 0 {
		t.Error("expected stationary intervals with maxPause=20")
	}
}

func TestRandomWaypointPauseZeroPauseMoves(t *testing.T) {
	m := RandomWaypointPause(field, 1, 5, 0, 60, randx.New(3))
	trace := Sample(m, 60, 10)
	stationary := 0
	for i := 1; i < len(trace); i++ {
		if trace[i].Pos.Dist(trace[i-1].Pos) < 1e-9 {
			stationary++
		}
	}
	// Only waypoint-corner coincidences may look stationary; essentially
	// none should.
	if stationary > len(trace)/50 {
		t.Errorf("%d stationary samples with zero pause", stationary)
	}
}

func TestRandomWaypointPausePanics(t *testing.T) {
	for _, c := range []struct{ vmin, vmax, pause float64 }{
		{0, 5, 1}, {5, 1, 1}, {1, 5, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("params %+v should panic", c)
				}
			}()
			RandomWaypointPause(field, c.vmin, c.vmax, c.pause, 10, randx.New(1))
		}()
	}
}

func TestGaussMarkovValidation(t *testing.T) {
	rng := randx.New(4)
	if _, err := NewGaussMarkov(field, 0, 0.8, 60, 0.1, rng); err == nil {
		t.Error("zero speed should fail")
	}
	if _, err := NewGaussMarkov(field, 3, 1, 60, 0.1, rng); err == nil {
		t.Error("alpha=1 should fail")
	}
	if _, err := NewGaussMarkov(field, 3, -0.1, 60, 0.1, rng); err == nil {
		t.Error("alpha<0 should fail")
	}
	if _, err := NewGaussMarkov(field, 3, 0.8, 60, 0, rng); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := NewGaussMarkov(field, 3, 0.8, 60, 0.1, rng); err != nil {
		t.Errorf("valid GM rejected: %v", err)
	}
}

func TestGaussMarkovStaysInField(t *testing.T) {
	m, err := NewGaussMarkov(field, 3, 0.8, 120, 0.1, randx.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range Sample(m, 120, 10) {
		if !field.Contains(tp.Pos) {
			t.Fatalf("t=%v position %v outside field", tp.T, tp.Pos)
		}
	}
}

func TestGaussMarkovMovesAtRoughlyMeanSpeed(t *testing.T) {
	m, _ := NewGaussMarkov(field, 3, 0.9, 120, 0.1, randx.New(6))
	trace := Sample(m, 120, 10)
	var dist float64
	for i := 1; i < len(trace); i++ {
		dist += trace[i].Pos.Dist(trace[i-1].Pos)
	}
	speed := dist / 120
	if speed < 1 || speed > 6 {
		t.Errorf("empirical speed %.2f m/s far from mean 3", speed)
	}
}

func TestGaussMarkovSmootherThanBrownian(t *testing.T) {
	// Higher alpha → smoother heading: measure mean absolute turn angle.
	turniness := func(alpha float64) float64 {
		m, _ := NewGaussMarkov(field, 3, alpha, 120, 0.1, randx.New(7))
		trace := Sample(m, 120, 2)
		var sum float64
		cnt := 0
		for i := 2; i < len(trace); i++ {
			v1 := trace[i-1].Pos.Sub(trace[i-2].Pos)
			v2 := trace[i].Pos.Sub(trace[i-1].Pos)
			if v1.Len() < 1e-9 || v2.Len() < 1e-9 {
				continue
			}
			d := math.Abs(math.Atan2(v1.X*v2.Y-v1.Y*v2.X, v1.Dot(v2)))
			sum += d
			cnt++
		}
		return sum / float64(cnt)
	}
	if smooth, rough := turniness(0.95), turniness(0.1); smooth >= rough {
		t.Errorf("α=0.95 turniness %.3f should be below α=0.1 %.3f", smooth, rough)
	}
}

func TestGaussMarkovClampsTime(t *testing.T) {
	m, _ := NewGaussMarkov(field, 3, 0.8, 10, 0.1, randx.New(8))
	if p := m.At(-5); !field.Contains(p) {
		t.Error("At(-5) invalid")
	}
	if p := m.At(1e6); !field.Contains(p) {
		t.Error("At(1e6) invalid")
	}
	if m.At(1e6) != m.At(1e7) {
		t.Error("times beyond the horizon should pin to the final sample")
	}
}

func TestGaussMarkovDeterministic(t *testing.T) {
	a, _ := NewGaussMarkov(field, 3, 0.8, 30, 0.1, randx.New(9))
	b, _ := NewGaussMarkov(field, 3, 0.8, 30, 0.1, randx.New(9))
	for _, tt := range []float64{0, 7.3, 29.9} {
		if a.At(tt) != b.At(tt) {
			t.Fatal("GM not reproducible")
		}
	}
}

func TestGeomPointOnSegmentInterp(t *testing.T) {
	// Interpolation sanity for the GM At: halfway between two samples.
	m := &GaussMarkov{samples: []geom.Point{geom.Pt(0, 0), geom.Pt(2, 4)}, step: 1}
	if got := m.At(0.5); !got.Eq(geom.Pt(1, 2)) {
		t.Errorf("At(0.5) = %v, want (1,2)", got)
	}
}
