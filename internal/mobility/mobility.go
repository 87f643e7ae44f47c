// Package mobility generates target motion for tracking experiments.
//
// The paper's simulations move the target with the random waypoint model
// (Table 1: velocity 1-5 m/s, 60 s runs); the outdoor system walks a
// square-wave "⊔"-shaped trace at 1-5 m/s (Fig. 13). Both are provided,
// along with simple waypoint paths, as Model implementations that can be
// sampled at the network's sampling rate λ.
package mobility

import (
	"fmt"
	"math"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

// Model yields the target position as a function of time.
type Model interface {
	// At returns the target position at time t seconds (t >= 0).
	At(t float64) geom.Point
}

// TracePoint is one timestamped true target position.
type TracePoint struct {
	T   float64
	Pos geom.Point
}

// Sample evaluates the model every 1/rate seconds over [0, duration] and
// returns the resulting trace (duration·rate + 1 points).
func Sample(m Model, duration, rate float64) []TracePoint {
	if rate <= 0 {
		panic(fmt.Sprintf("mobility: non-positive sampling rate %v", rate))
	}
	steps := int(math.Floor(duration*rate + 1e-9))
	trace := make([]TracePoint, 0, steps+1)
	for k := 0; k <= steps; k++ {
		t := float64(k) / rate
		trace = append(trace, TracePoint{T: t, Pos: m.At(t)})
	}
	return trace
}

// leg is one constant-velocity segment of a precomputed motion.
type leg struct {
	start geom.Point
	end   geom.Point
	t0    float64 // departure time
	t1    float64 // arrival time (t1 >= t0; equality means a pause point)
}

// path is a piecewise-linear motion through timed legs.
type path struct {
	legs []leg
}

func (p *path) At(t float64) geom.Point {
	if len(p.legs) == 0 {
		return geom.Point{}
	}
	if t <= p.legs[0].t0 {
		return p.legs[0].start
	}
	for _, l := range p.legs {
		if t <= l.t1 {
			if l.t1 == l.t0 {
				return l.end
			}
			f := (t - l.t0) / (l.t1 - l.t0)
			return geom.Segment{A: l.start, B: l.end}.At(f)
		}
	}
	return p.legs[len(p.legs)-1].end
}

// RandomWaypoint builds the random waypoint model of [30] as used in
// Sec. 7: the target repeatedly picks a uniform destination in the field
// and a uniform speed in [vMin, vMax], travels there in a straight line,
// and immediately picks the next waypoint (no pause time, matching the
// continuous traces of Fig. 10). Legs are precomputed to cover duration
// seconds, so At is deterministic and O(log legs) amortised.
func RandomWaypoint(field geom.Rect, vMin, vMax, duration float64, rng *randx.Stream) Model {
	if vMin <= 0 || vMax < vMin {
		panic(fmt.Sprintf("mobility: invalid speed range [%v, %v]", vMin, vMax))
	}
	p := &path{}
	cur := geom.Pt(
		rng.Uniform(field.Min.X, field.Max.X),
		rng.Uniform(field.Min.Y, field.Max.Y),
	)
	t := 0.0
	for t < duration {
		dst := geom.Pt(
			rng.Uniform(field.Min.X, field.Max.X),
			rng.Uniform(field.Min.Y, field.Max.Y),
		)
		v := rng.Uniform(vMin, vMax)
		dt := cur.Dist(dst) / v
		if dt < 1e-9 {
			continue
		}
		p.legs = append(p.legs, leg{start: cur, end: dst, t0: t, t1: t + dt})
		cur = dst
		t += dt
	}
	return p
}

// Waypoints builds a constant-speed piecewise-linear motion through the
// given points. It panics for fewer than two points or non-positive speed.
func Waypoints(pts []geom.Point, speed float64) Model {
	if len(pts) < 2 {
		panic("mobility: need at least two waypoints")
	}
	if speed <= 0 {
		panic(fmt.Sprintf("mobility: non-positive speed %v", speed))
	}
	p := &path{}
	t := 0.0
	for i := 1; i < len(pts); i++ {
		dt := pts[i-1].Dist(pts[i]) / speed
		p.legs = append(p.legs, leg{start: pts[i-1], end: pts[i], t0: t, t1: t + dt})
		t += dt
	}
	return p
}

// VariableSpeedWaypoints is Waypoints with a per-leg speed drawn uniformly
// from [vMin, vMax] — the outdoor target of Fig. 13 walked at "changeable
// velocity in 1~5 m/s".
func VariableSpeedWaypoints(pts []geom.Point, vMin, vMax float64, rng *randx.Stream) Model {
	if len(pts) < 2 {
		panic("mobility: need at least two waypoints")
	}
	if vMin <= 0 || vMax < vMin {
		panic(fmt.Sprintf("mobility: invalid speed range [%v, %v]", vMin, vMax))
	}
	p := &path{}
	t := 0.0
	for i := 1; i < len(pts); i++ {
		v := rng.Uniform(vMin, vMax)
		dt := pts[i-1].Dist(pts[i]) / v
		p.legs = append(p.legs, leg{start: pts[i-1], end: pts[i], t0: t, t1: t + dt})
		t += dt
	}
	return p
}

// SquareWave returns the "⊔"-shaped outdoor trace of Fig. 13 as waypoints:
// starting at the top-left of a margin-inset box, the target walks down
// the left side, across the bottom, and up the right side.
func SquareWave(field geom.Rect, margin float64) []geom.Point {
	return []geom.Point{
		geom.Pt(field.Min.X+margin, field.Max.Y-margin),
		geom.Pt(field.Min.X+margin, field.Min.Y+margin),
		geom.Pt(field.Max.X-margin, field.Min.Y+margin),
		geom.Pt(field.Max.X-margin, field.Max.Y-margin),
	}
}

// Duration returns the time at which a Waypoints/VariableSpeedWaypoints/
// RandomWaypoint model reaches its final waypoint, and ok=true; for other
// models it returns 0, false.
func Duration(m Model) (float64, bool) {
	p, ok := m.(*path)
	if !ok || len(p.legs) == 0 {
		return 0, false
	}
	return p.legs[len(p.legs)-1].t1, true
}
