package filter

import (
	"math"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/stats"
)

var field = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// noisyLine generates a constant-velocity truth with Gaussian measurement
// noise: the regime where a CV Kalman filter must beat raw measurements.
func noisyLine(n int, dt, noise float64, seed uint64) (truth, meas []geom.Point, times []float64) {
	rng := randx.New(seed)
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		p := geom.Pt(10+0.8*t, 20+0.5*t) // stays inside the 100×100 field
		truth = append(truth, p)
		meas = append(meas, geom.Pt(p.X+rng.Normal(0, noise), p.Y+rng.Normal(0, noise)))
		times = append(times, t)
	}
	return truth, meas, times
}

// smooth runs s over a whole estimate series with the given timestamps
// and returns the filtered positions, as the smoothing experiment does.
func smooth(s Smoother, estimates []geom.Point, times []float64) []geom.Point {
	out := make([]geom.Point, len(estimates))
	prevT := 0.0
	for i, z := range estimates {
		dt := 0.0
		if i > 0 {
			dt = times[i] - prevT
		}
		prevT = times[i]
		out[i] = s.Update(z, dt)
	}
	return out
}

// State returns the current position and velocity estimates.
func (k *Kalman) State() (pos geom.Point, vel geom.Vec) {
	return geom.Pt(k.x, k.y), geom.Vec{X: k.vx, Y: k.vy}
}

func meanErr(est, truth []geom.Point) float64 {
	errs := make([]float64, len(est))
	for i := range est {
		errs[i] = est[i].Dist(truth[i])
	}
	return stats.Mean(errs)
}

func TestNewKalmanValidation(t *testing.T) {
	if _, err := NewKalman(0, 1); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := NewKalman(1, 0); err == nil {
		t.Error("r=0 should fail")
	}
	if _, err := NewKalman(1, 1); err != nil {
		t.Errorf("valid kalman rejected: %v", err)
	}
}

func TestKalmanReducesNoise(t *testing.T) {
	truth, meas, times := noisyLine(200, 0.5, 4, 1)
	k, _ := NewKalman(0.5, 4)
	smoothed := smooth(k, meas, times)
	raw := meanErr(meas, truth)
	flt := meanErr(smoothed[20:], truth[20:]) // skip convergence
	if flt >= raw {
		t.Errorf("Kalman error %.2f should beat raw %.2f", flt, raw)
	}
}

func TestKalmanFirstUpdateReturnsMeasurement(t *testing.T) {
	k, _ := NewKalman(1, 2)
	z := geom.Pt(5, 7)
	if got := k.Update(z, 0); got != z {
		t.Errorf("first update = %v, want %v", got, z)
	}
}

func TestKalmanEstimatesVelocity(t *testing.T) {
	truth, meas, times := noisyLine(300, 0.5, 2, 2)
	// Small process noise: the target really is constant-velocity, so a
	// stiff filter gives a tight velocity estimate.
	k, _ := NewKalman(0.02, 2)
	smooth(k, meas, times)
	_, vel := k.State()
	if math.Abs(vel.X-0.8) > 0.3 || math.Abs(vel.Y-0.5) > 0.3 {
		t.Errorf("velocity estimate %v, want ≈(0.8,0.5)", vel)
	}
	_ = truth
}

func TestKalmanTracksTurn(t *testing.T) {
	// The filter must not diverge on a 90° turn; it lags but recovers.
	rng := randx.New(3)
	var truth, meas []geom.Point
	var times []float64
	for i := 0; i < 200; i++ {
		t := float64(i) * 0.5
		var p geom.Point
		if i < 100 {
			p = geom.Pt(10+1.5*t, 20)
		} else {
			p = geom.Pt(10+1.5*float64(99)*0.5, 20+1.5*(t-49.5))
		}
		truth = append(truth, p)
		meas = append(meas, geom.Pt(p.X+rng.Normal(0, 3), p.Y+rng.Normal(0, 3)))
		times = append(times, t)
	}
	k, _ := NewKalman(2, 3)
	sm := smooth(k, meas, times)
	if e := meanErr(sm[150:], truth[150:]); e > 5 {
		t.Errorf("post-turn error %.2f too large", e)
	}
}

func TestKalmanReset(t *testing.T) {
	k, _ := NewKalman(1, 2)
	k.Update(geom.Pt(5, 5), 0)
	k.Update(geom.Pt(6, 5), 1)
	k.Reset()
	z := geom.Pt(90, 90)
	if got := k.Update(z, 1); got != z {
		t.Errorf("after Reset the first update should return z, got %v", got)
	}
}

func TestKalmanNegativeDtClamped(t *testing.T) {
	k, _ := NewKalman(1, 2)
	k.Update(geom.Pt(5, 5), 0)
	got := k.Update(geom.Pt(6, 5), -10)
	if math.IsNaN(got.X) || math.IsNaN(got.Y) {
		t.Error("negative dt produced NaN")
	}
}

func TestNewParticleValidation(t *testing.T) {
	rng := randx.New(1)
	if _, err := NewParticle(field, 5, 1, 1, rng); err == nil {
		t.Error("too few particles should fail")
	}
	if _, err := NewParticle(field, 100, 0, 1, rng); err == nil {
		t.Error("accel=0 should fail")
	}
	if _, err := NewParticle(field, 100, 1, 0, rng); err == nil {
		t.Error("measStd=0 should fail")
	}
	if _, err := NewParticle(field, 100, 1, 1, nil); err == nil {
		t.Error("nil rng should fail")
	}
	pf, err := NewParticle(field, 100, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pf.px) != 100 {
		t.Errorf("particles = %d, want 100", len(pf.px))
	}
}

func TestParticleReducesNoise(t *testing.T) {
	truth, meas, times := noisyLine(200, 0.5, 4, 4)
	pf, _ := NewParticle(field, 500, 2, 4, randx.New(5))
	smoothed := smooth(pf, meas, times)
	raw := meanErr(meas, truth)
	flt := meanErr(smoothed[20:], truth[20:])
	if flt >= raw {
		t.Errorf("particle error %.2f should beat raw %.2f", flt, raw)
	}
}

func TestParticleStaysInField(t *testing.T) {
	pf, _ := NewParticle(field, 200, 3, 3, randx.New(6))
	rng := randx.New(7)
	for i := 0; i < 100; i++ {
		z := geom.Pt(rng.Uniform(0, 100), rng.Uniform(0, 100))
		est := pf.Update(z, 0.5)
		if !field.Contains(est) {
			t.Fatalf("estimate %v left the field", est)
		}
	}
}

func TestParticleSurvivesJump(t *testing.T) {
	// A face-matching jump teleports the measurement across the field;
	// the degenerate-weight rescue must keep the filter alive.
	pf, _ := NewParticle(field, 200, 1, 2, randx.New(8))
	pf.Update(geom.Pt(10, 10), 0)
	for i := 0; i < 5; i++ {
		pf.Update(geom.Pt(10+float64(i), 10), 0.5)
	}
	est := pf.Update(geom.Pt(90, 90), 0.5)
	if math.IsNaN(est.X) || math.IsNaN(est.Y) {
		t.Fatal("jump produced NaN")
	}
	// After a few updates at the new location the filter relocks.
	for i := 0; i < 10; i++ {
		est = pf.Update(geom.Pt(90, 90), 0.5)
	}
	if est.Dist(geom.Pt(90, 90)) > 5 {
		t.Errorf("filter failed to relock after jump: %v", est)
	}
}

func TestParticleReset(t *testing.T) {
	pf, _ := NewParticle(field, 100, 1, 2, randx.New(9))
	pf.Update(geom.Pt(10, 10), 0)
	pf.Reset()
	z := geom.Pt(80, 20)
	if got := pf.Update(z, 1); got != z {
		t.Errorf("after Reset first update should return z, got %v", got)
	}
}

func TestParticleDeterministic(t *testing.T) {
	run := func() geom.Point {
		pf, _ := NewParticle(field, 100, 1, 2, randx.New(10))
		var est geom.Point
		for i := 0; i < 20; i++ {
			est = pf.Update(geom.Pt(float64(10+i), 30), 0.5)
		}
		return est
	}
	if run() != run() {
		t.Error("particle filter not reproducible under the same seed")
	}
}

func TestSmootherInterface(t *testing.T) {
	var smoothers []Smoother
	k, _ := NewKalman(1, 2)
	pf, _ := NewParticle(field, 50, 1, 2, randx.New(11))
	smoothers = append(smoothers, k, pf)
	for _, s := range smoothers {
		s.Update(geom.Pt(1, 1), 0)
		s.Reset()
	}
}
