// Package filter provides model-based post-smoothers for tracker
// estimates: a constant-velocity Kalman filter and a bootstrap particle
// filter. The paper's related work (Sec. 2) contrasts FTTT with
// model-based tracking built on exactly these filters [16][18][19]; here
// they are offered as optional output stages — FTTT (or any tracker)
// produces raw per-localization estimates, and a filter turns them into
// a smoothed trajectory, trading latency and model assumptions for lower
// error deviation. The SmoothingExperiment compares FTTT+Kalman and
// FTTT+particle against the extended FTTT variant, which achieves its
// smoothing without any mobility model.
package filter

import (
	"fmt"

	"fttt/internal/geom"
)

// Kalman is a constant-velocity Kalman filter over the state
// [x, y, vx, vy], with position-only measurements. The zero value is not
// usable; construct with NewKalman.
type Kalman struct {
	// q is the process-noise spectral density (m²/s³): how much the
	// constant-velocity assumption is allowed to bend.
	q float64
	// r is the measurement-noise variance (m²) of the tracker estimates.
	r float64

	initialized bool
	// state: position and velocity.
	x, y, vx, vy float64
	// p is the 4×4 state covariance, row-major.
	p [16]float64
}

// NewKalman builds a filter. processNoise (q) is the acceleration
// spectral density in m²/s³; measurementStd is the tracker's typical
// error in metres (its square becomes the measurement variance).
func NewKalman(processNoise, measurementStd float64) (*Kalman, error) {
	if processNoise <= 0 {
		return nil, fmt.Errorf("filter: process noise must be positive, got %v", processNoise)
	}
	if measurementStd <= 0 {
		return nil, fmt.Errorf("filter: measurement std must be positive, got %v", measurementStd)
	}
	return &Kalman{q: processNoise, r: measurementStd * measurementStd}, nil
}

// Reset forgets all state; the next Update re-initialises.
func (k *Kalman) Reset() { k.initialized = false }

// Update advances the filter by dt seconds and fuses the measurement z,
// returning the filtered position. The first call initialises the state
// at z with zero velocity and a diffuse covariance.
func (k *Kalman) Update(z geom.Point, dt float64) geom.Point {
	if !k.initialized {
		k.x, k.y, k.vx, k.vy = z.X, z.Y, 0, 0
		for i := range k.p {
			k.p[i] = 0
		}
		// Diffuse prior: large position and velocity uncertainty.
		k.p[0], k.p[5] = k.r*10, k.r*10
		k.p[10], k.p[15] = 100, 100
		k.initialized = true
		return z
	}
	if dt < 0 {
		dt = 0
	}
	k.predict(dt)
	k.correct(z)
	return geom.Pt(k.x, k.y)
}

// predict applies the constant-velocity transition
// F = [1 0 dt 0; 0 1 0 dt; 0 0 1 0; 0 0 0 1] and the white-acceleration
// process noise Q.
func (k *Kalman) predict(dt float64) {
	k.x += k.vx * dt
	k.y += k.vy * dt

	// P ← F P Fᵀ + Q, written out for the block structure: the x/vx and
	// y/vy blocks are independent and identical in form.
	dt2 := dt * dt
	dt3 := dt2 * dt / 2
	dt4 := dt2 * dt2 / 4

	// Helper indices: p[r*4+c].
	idx := func(r, c int) int { return r*4 + c }
	// x block: rows/cols {0, 2}; y block: rows/cols {1, 3}.
	for _, blk := range [][2]int{{0, 2}, {1, 3}} {
		pi, vi := blk[0], blk[1]
		ppp := k.p[idx(pi, pi)]
		ppv := k.p[idx(pi, vi)]
		pvp := k.p[idx(vi, pi)]
		pvv := k.p[idx(vi, vi)]
		k.p[idx(pi, pi)] = ppp + dt*(ppv+pvp) + dt2*pvv + k.q*dt4
		k.p[idx(pi, vi)] = ppv + dt*pvv + k.q*dt3
		k.p[idx(vi, pi)] = pvp + dt*pvv + k.q*dt3
		k.p[idx(vi, vi)] = pvv + k.q*dt2
	}
	// Cross x-y blocks propagate too, but with H observing x and y
	// directly and Q diagonal per block, any initial zeros stay zero; we
	// keep them untouched (they remain zero throughout).
}

// correct fuses a position measurement with H = [1 0 0 0; 0 1 0 0] and
// R = r·I₂. With the cross x-y covariance zero, the update decouples
// into two independent 2-state corrections.
func (k *Kalman) correct(z geom.Point) {
	idx := func(r, c int) int { return r*4 + c }
	for _, blk := range []struct {
		pi, vi int
		innov  float64
	}{
		{0, 2, z.X - k.x},
		{1, 3, z.Y - k.y},
	} {
		pi, vi := blk.pi, blk.vi
		s := k.p[idx(pi, pi)] + k.r
		kp := k.p[idx(pi, pi)] / s // gain for position
		kv := k.p[idx(vi, pi)] / s // gain for velocity
		switch pi {
		case 0:
			k.x += kp * blk.innov
			k.vx += kv * blk.innov
		default:
			k.y += kp * blk.innov
			k.vy += kv * blk.innov
		}
		// Joseph-free covariance update (standard form).
		ppp := k.p[idx(pi, pi)]
		ppv := k.p[idx(pi, vi)]
		pvp := k.p[idx(vi, pi)]
		k.p[idx(pi, pi)] = (1 - kp) * ppp
		k.p[idx(pi, vi)] = (1 - kp) * ppv
		k.p[idx(vi, pi)] = pvp - kv*ppp
		k.p[idx(vi, vi)] -= kv * ppv
	}
}
