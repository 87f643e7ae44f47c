package filter

import (
	"fmt"
	"math"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

// Particle is a bootstrap (sequential importance resampling) particle
// filter over a near-constant-velocity motion model with position-only
// measurements — the classic tracking filter of [19], provided as an
// alternative smoother to the Kalman filter for multimodal error
// distributions (FTTT's face-matching errors are discrete jumps, not
// Gaussian blur).
type Particle struct {
	field geom.Rect
	// accel is the random-walk acceleration std dev (m/s²).
	accel float64
	// measStd is the measurement noise std dev (m).
	measStd float64
	rng     *randx.Stream

	px, py, vx, vy, w []float64
	initialized       bool
}

// NewParticle builds a filter with n particles confined to the field.
func NewParticle(field geom.Rect, n int, accel, measStd float64, rng *randx.Stream) (*Particle, error) {
	if n < 10 {
		return nil, fmt.Errorf("filter: need at least 10 particles, got %d", n)
	}
	if accel <= 0 || measStd <= 0 {
		return nil, fmt.Errorf("filter: accel and measStd must be positive (got %v, %v)", accel, measStd)
	}
	if rng == nil {
		return nil, fmt.Errorf("filter: nil rng")
	}
	return &Particle{
		field:   field,
		accel:   accel,
		measStd: measStd,
		rng:     rng,
		px:      make([]float64, n),
		py:      make([]float64, n),
		vx:      make([]float64, n),
		vy:      make([]float64, n),
		w:       make([]float64, n),
	}, nil
}

// Reset forgets all particles; the next Update re-initialises.
func (f *Particle) Reset() { f.initialized = false }

// Update advances the filter by dt seconds, weights particles against the
// measurement z, resamples, and returns the weighted mean position.
func (f *Particle) Update(z geom.Point, dt float64) geom.Point {
	n := len(f.px)
	if !f.initialized {
		for i := 0; i < n; i++ {
			f.px[i] = z.X + f.rng.Normal(0, f.measStd)
			f.py[i] = z.Y + f.rng.Normal(0, f.measStd)
			f.vx[i] = f.rng.Normal(0, 2)
			f.vy[i] = f.rng.Normal(0, 2)
			f.w[i] = 1 / float64(n)
		}
		f.initialized = true
		return z
	}
	if dt < 0 {
		dt = 0
	}
	// Propagate with random acceleration.
	for i := 0; i < n; i++ {
		ax := f.rng.Normal(0, f.accel)
		ay := f.rng.Normal(0, f.accel)
		f.vx[i] += ax * dt
		f.vy[i] += ay * dt
		f.px[i] += f.vx[i] * dt
		f.py[i] += f.vy[i] * dt
		// Reflect at the field boundary: targets do not leave the
		// monitor area.
		if f.px[i] < f.field.Min.X {
			f.px[i] = 2*f.field.Min.X - f.px[i]
			f.vx[i] = -f.vx[i]
		}
		if f.px[i] > f.field.Max.X {
			f.px[i] = 2*f.field.Max.X - f.px[i]
			f.vx[i] = -f.vx[i]
		}
		if f.py[i] < f.field.Min.Y {
			f.py[i] = 2*f.field.Min.Y - f.py[i]
			f.vy[i] = -f.vy[i]
		}
		if f.py[i] > f.field.Max.Y {
			f.py[i] = 2*f.field.Max.Y - f.py[i]
			f.vy[i] = -f.vy[i]
		}
	}
	// Weight by the Gaussian measurement likelihood.
	inv2s2 := 1 / (2 * f.measStd * f.measStd)
	var wsum float64
	for i := 0; i < n; i++ {
		dx := f.px[i] - z.X
		dy := f.py[i] - z.Y
		f.w[i] = math.Exp(-(dx*dx + dy*dy) * inv2s2)
		wsum += f.w[i]
	}
	if wsum <= 1e-300 {
		// Degenerate: every particle far from the measurement (e.g. a
		// face-matching jump). Re-seed around z rather than divide by ~0.
		f.initialized = false
		return f.Update(z, 0)
	}
	// Estimate = weighted mean.
	var ex, ey float64
	for i := 0; i < n; i++ {
		f.w[i] /= wsum
		ex += f.w[i] * f.px[i]
		ey += f.w[i] * f.py[i]
	}
	f.resample()
	return f.field.Clamp(geom.Pt(ex, ey))
}

// resample performs systematic resampling, which keeps particle diversity
// with O(n) work.
func (f *Particle) resample() {
	n := len(f.px)
	npx := make([]float64, n)
	npy := make([]float64, n)
	nvx := make([]float64, n)
	nvy := make([]float64, n)
	step := 1 / float64(n)
	u := f.rng.Float64() * step
	var cum float64
	j := 0
	for i := 0; i < n; i++ {
		target := u + float64(i)*step
		for cum+f.w[j] < target && j < n-1 {
			cum += f.w[j]
			j++
		}
		npx[i], npy[i] = f.px[j], f.py[j]
		nvx[i], nvy[i] = f.vx[j], f.vy[j]
	}
	copy(f.px, npx)
	copy(f.py, npy)
	copy(f.vx, nvx)
	copy(f.vy, nvy)
	for i := range f.w {
		f.w[i] = step
	}
}

// Smoother is the interface both filters satisfy; the smoothing
// experiment runs any Smoother over a tracked series.
type Smoother interface {
	Update(z geom.Point, dt float64) geom.Point
	Reset()
}

var (
	_ Smoother = (*Kalman)(nil)
	_ Smoother = (*Particle)(nil)
)
