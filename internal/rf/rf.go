// Package rf implements the radio-signal substrate of the paper: the
// log-distance path-loss model with Gaussian noise (eq. 1), RSS sampling,
// and the uncertainty constant C (eq. 3) that determines the Apollonius
// boundaries of a pair's uncertain area (eq. 4).
//
// Throughout, "RSS" is the received signal strength in dBm: larger values
// mean the receiver is closer to the source. Following eq. 1,
//
//	RSS(d) = P0 + A − 10·β·log10(d/d0) + X,   X ~ N(0, σ_X²)
//
// with reference distance d0 = 1 m.
package rf

import (
	"errors"
	"fmt"
	"math"
)

// Model holds the parameters of the log-distance path-loss model.
// The zero value is not usable; construct with NewModel or use Default.
type Model struct {
	// P0 is the measured path loss (received power) at the reference
	// distance d0 = 1 m, in dBm. Its absolute value shifts every RSS by
	// the same constant and therefore never affects pairwise comparisons.
	P0 float64
	// A is a fixed antenna/environment gain in dB (paper's A term).
	A float64
	// Beta is the path-loss exponent: 2 for free space, 3-4 for
	// environments with reflections (Table 1 uses β = 4).
	Beta float64
	// SigmaX is the standard deviation of the Gaussian noise term in dB
	// (Table 1 uses σ_X = 6).
	SigmaX float64
	// MinDist floors the distance used in the log term so a target
	// standing exactly on a sensor does not yield +Inf. Defaults to 0.1 m.
	MinDist float64
	// FastFraction splits σ_X between a slow shadowing component that is
	// constant within one grouping sampling's short Δt window and a fast
	// per-instant component: σ_fast = FastFraction·σ_X and
	// σ_slow = √(1−FastFraction²)·σ_X, so single-shot samples keep the
	// full σ_X of eq. 1. The flips of Fig. 1 are produced by the fast
	// component; the paper's coin-flip model of Sec. 5.1 corresponds to
	// a small FastFraction. Default 0.5, which reproduces the paper's
	// qualitative trends (error falling with k and with finer ε) while
	// keeping realistic shadowing; see EXPERIMENTS.md.
	FastFraction float64
}

// Default returns the model with the paper's Table 1 settings
// (β = 4, σ_X = 6) and a conventional P0 of -40 dBm.
func Default() Model {
	return Model{P0: -40, A: 0, Beta: 4, SigmaX: 6, MinDist: 0.1, FastFraction: 0.5}
}

// SigmaFast returns the per-instant noise component's standard deviation.
func (m Model) SigmaFast() float64 { return m.FastFraction * m.SigmaX }

// SigmaSlow returns the within-group-constant shadowing component's
// standard deviation, chosen so slow² + fast² = σ_X².
func (m Model) SigmaSlow() float64 {
	f := m.FastFraction
	return m.SigmaX * math.Sqrt(1-f*f)
}

// Validate reports whether the model parameters are physically meaningful.
func (m Model) Validate() error {
	if m.Beta <= 0 {
		return fmt.Errorf("rf: path-loss exponent β must be positive, got %v", m.Beta)
	}
	if m.SigmaX < 0 {
		return fmt.Errorf("rf: noise σ_X must be non-negative, got %v", m.SigmaX)
	}
	if m.MinDist < 0 {
		return errors.New("rf: MinDist must be non-negative")
	}
	if m.FastFraction < 0 || m.FastFraction > 1 {
		return fmt.Errorf("rf: FastFraction must be in [0,1], got %v", m.FastFraction)
	}
	return nil
}

// MeanRSS returns the noise-free expected RSS at distance d metres.
func (m Model) MeanRSS(d float64) float64 {
	if d < m.MinDist {
		d = m.MinDist
	}
	if d < 1e-12 {
		d = 1e-12
	}
	return m.P0 + m.A - 10*m.Beta*math.Log10(d)
}

// InvertMeanRSS returns the distance whose noise-free RSS equals rss — the
// textbook range estimate used by range-based baselines. The result is
// floored at MinDist.
func (m Model) InvertMeanRSS(rss float64) float64 {
	d := math.Pow(10, (m.P0+m.A-rss)/(10*m.Beta))
	if d < m.MinDist {
		return m.MinDist
	}
	return d
}

// UncertaintyC returns the constant C of eq. 3 for sensing resolution
// epsilon (dBm):
//
//	C = exp( a·ε + a²·σ_X² ),   a = ln10 / (10·β)
//
// C > 1 whenever ε > 0 or σ_X > 0. Points x with distance ratio
// d_m/d_n in (1/C, C) lie in the pair's uncertain area; the boundary is
// the pair of Apollonius circles with ratios C and 1/C (eq. 4).
func (m Model) UncertaintyC(epsilon float64) float64 {
	a := math.Ln10 / (10 * m.Beta)
	return math.Exp(a*epsilon + a*a*m.SigmaX*m.SigmaX)
}

// GroupFlipProbability returns the probability that a grouping sampling
// of k instants observes a flipped order (or a within-ε tie) for a pair
// whose noise-free RSS margin is deltaMu = |MeanRSS(dm) − MeanRSS(dn)|,
// under the split-noise model: the shadowing difference S ~ N(0, 2σ_slow²)
// is constant within the group, the fast difference is N(0, 2σ_fast²) per
// instant, and an instant counts as inverted when margin + S + F falls
// below 0 (and as a resolution tie when |margin + S + F| < ε).
//
// The group reports Flipped unless all k instants agree decisively, so
//
//	P(flip) = 1 − E_S[ a(S)^k + b(S)^k ]
//
// with a(S) = P(one instant decisively ordinal), b(S) = P(decisively
// inverted). The expectation over S is computed by trapezoid quadrature.
func (m Model) GroupFlipProbability(deltaMu, epsilon float64, k int) float64 {
	if k < 1 {
		return 0
	}
	sf := m.SigmaFast() * math.Sqrt2
	ss := m.SigmaSlow() * math.Sqrt2
	kf := float64(k)
	// P(one instant > ε) and P(one instant < -ε) given total offset u.
	agree := func(u float64) (a, b float64) {
		if sf == 0 {
			switch {
			case u >= epsilon:
				return 1, 0
			case u <= -epsilon:
				return 0, 1
			default:
				return 0, 0
			}
		}
		a = 0.5 * math.Erfc((epsilon-u)/(sf*math.Sqrt2))
		b = 0.5 * math.Erfc((epsilon+u)/(sf*math.Sqrt2))
		return a, b
	}
	if ss == 0 {
		a, b := agree(deltaMu)
		return 1 - math.Pow(a, kf) - math.Pow(b, kf)
	}
	// E_S over S ~ N(0, ss²), ±5σ, trapezoid.
	const steps = 200
	lo, hi := -5*ss, 5*ss
	h := (hi - lo) / steps
	var sum, wsum float64
	for i := 0; i <= steps; i++ {
		s := lo + float64(i)*h
		w := math.Exp(-s * s / (2 * ss * ss))
		if i == 0 || i == steps {
			w /= 2
		}
		a, b := agree(deltaMu + s)
		sum += w * (math.Pow(a, kf) + math.Pow(b, kf))
		wsum += w
	}
	return 1 - sum/wsum
}

// CalibratedC returns the uncertainty constant calibrated to the grouping
// sampling: the distance ratio at which a group of k samples observes a
// flipped pair with probability 1/2, so the signature vectors' uncertain
// areas coincide with where Algorithm 1 actually reports Flipped.
//
// Eq. 3's constant averages the noise once and ignores k, which can leave
// the uncertain band statistically inconsistent with the grouping
// sampling (see DESIGN.md §5 and the BoundaryAblation experiment). Here
// the boundary margin Δμ* solves GroupFlipProbability(Δμ*, ε, k) = 1/2
// by bisection, and
//
//	C = 10^(Δμ* / (10·β)).
//
// With σ_X = 0 and ε = 0 it degenerates to 1 (certain bisectors); the
// result is floored at eq. 3's noise-free value 10^(ε/(10β)).
func (m Model) CalibratedC(epsilon float64, k int) float64 {
	floor := math.Pow(10, epsilon/(10*m.Beta))
	if k < 2 || m.SigmaX == 0 {
		return floor
	}
	// P(flip) is monotone decreasing in the margin; bisect on Δμ.
	lo, hi := 0.0, 20*m.SigmaX+epsilon
	if m.GroupFlipProbability(hi, epsilon, k) >= 0.5 {
		return math.Pow(10, hi/(10*m.Beta)) // pathological: everything flips
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if m.GroupFlipProbability(mid, epsilon, k) >= 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	c := math.Pow(10, (lo+hi)/2/(10*m.Beta))
	if c < floor {
		return floor
	}
	return c
}
