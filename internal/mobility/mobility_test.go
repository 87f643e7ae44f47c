package mobility

import (
	"math"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

var field = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

func TestRandomWaypointStaysInField(t *testing.T) {
	m := RandomWaypoint(field, 1, 5, 60, randx.New(1))
	for _, tp := range Sample(m, 60, 10) {
		if !field.Contains(tp.Pos) {
			t.Fatalf("t=%v position %v outside field", tp.T, tp.Pos)
		}
	}
}

func TestRandomWaypointSpeedBounds(t *testing.T) {
	m := RandomWaypoint(field, 1, 5, 60, randx.New(2))
	trace := Sample(m, 60, 100)
	for i := 1; i < len(trace); i++ {
		dt := trace[i].T - trace[i-1].T
		v := trace[i].Pos.Dist(trace[i-1].Pos) / dt
		// A sampling interval can straddle a waypoint corner, where the
		// chord is shorter than the path, so only the upper bound is
		// strict (plus slack for the corner cut).
		if v > 5+1e-6 {
			t.Fatalf("speed %v exceeds vMax at t=%v", v, trace[i].T)
		}
	}
}

func TestRandomWaypointReproducible(t *testing.T) {
	a := RandomWaypoint(field, 1, 5, 30, randx.New(7))
	b := RandomWaypoint(field, 1, 5, 30, randx.New(7))
	for _, tt := range []float64{0, 1.5, 10, 29.9} {
		if a.At(tt) != b.At(tt) {
			t.Fatalf("models diverge at t=%v", tt)
		}
	}
}

func TestRandomWaypointMoves(t *testing.T) {
	m := RandomWaypoint(field, 1, 5, 60, randx.New(3))
	if m.At(0).Dist(m.At(30)) < 1 {
		t.Error("target barely moved in 30 s")
	}
}

func TestRandomWaypointPanics(t *testing.T) {
	for _, c := range []struct{ lo, hi float64 }{{0, 5}, {-1, 5}, {5, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("speed range [%v,%v] should panic", c.lo, c.hi)
				}
			}()
			RandomWaypoint(field, c.lo, c.hi, 10, randx.New(1))
		}()
	}
}

func TestWaypointsTiming(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10)}
	m := Waypoints(pts, 2) // 10 m at 2 m/s per leg → 5 s per leg
	if got := m.At(0); !got.Eq(pts[0]) {
		t.Errorf("At(0) = %v", got)
	}
	if got := m.At(2.5); !got.Eq(geom.Pt(5, 0)) {
		t.Errorf("At(2.5) = %v, want (5,0)", got)
	}
	if got := m.At(5); !got.Eq(geom.Pt(10, 0)) {
		t.Errorf("At(5) = %v, want (10,0)", got)
	}
	if got := m.At(7.5); !got.Eq(geom.Pt(10, 5)) {
		t.Errorf("At(7.5) = %v, want (10,5)", got)
	}
	// Clamps beyond the final waypoint and before t=0.
	if got := m.At(100); !got.Eq(pts[2]) {
		t.Errorf("At(100) = %v, want final waypoint", got)
	}
	if got := m.At(-3); !got.Eq(pts[0]) {
		t.Errorf("At(-3) = %v, want first waypoint", got)
	}
	if d, ok := Duration(m); !ok || math.Abs(d-10) > 1e-9 {
		t.Errorf("Duration = %v,%v, want 10,true", d, ok)
	}
}

func TestWaypointsPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("single waypoint should panic")
			}
		}()
		Waypoints([]geom.Point{geom.Pt(0, 0)}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero speed should panic")
			}
		}()
		Waypoints([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0)
	}()
}

func TestVariableSpeedWaypoints(t *testing.T) {
	pts := SquareWave(field, 20)
	m := VariableSpeedWaypoints(pts, 1, 5, randx.New(4))
	d, ok := Duration(m)
	if !ok {
		t.Fatal("Duration should be known")
	}
	// Path length is 3 legs of 60 m = 180 m; at 1-5 m/s duration is
	// between 36 and 180 s.
	if d < 36 || d > 180 {
		t.Errorf("duration %v outside [36,180]", d)
	}
	if got := m.At(0); !got.Eq(pts[0]) {
		t.Errorf("start = %v, want %v", got, pts[0])
	}
	if got := m.At(d + 1); !got.Eq(pts[3]) {
		t.Errorf("end = %v, want %v", got, pts[3])
	}
}

func TestSquareWaveShape(t *testing.T) {
	pts := SquareWave(field, 20)
	want := []geom.Point{
		geom.Pt(20, 80), geom.Pt(20, 20), geom.Pt(80, 20), geom.Pt(80, 80),
	}
	if len(pts) != 4 {
		t.Fatalf("got %d waypoints", len(pts))
	}
	for i := range want {
		if !pts[i].Eq(want[i]) {
			t.Errorf("waypoint %d = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestStatic(t *testing.T) {
	m := Static(geom.Pt(3, 4))
	for _, tt := range []float64{0, 5, 1e6} {
		if got := m.At(tt); !got.Eq(geom.Pt(3, 4)) {
			t.Errorf("Static.At(%v) = %v", tt, got)
		}
	}
	if _, ok := Duration(m); ok {
		t.Error("Static has no duration")
	}
}

func TestSampleCountAndSpacing(t *testing.T) {
	m := Static(geom.Pt(0, 0))
	trace := Sample(m, 60, 10)
	if len(trace) != 601 {
		t.Fatalf("got %d samples, want 601", len(trace))
	}
	for i := 1; i < len(trace); i++ {
		if math.Abs(trace[i].T-trace[i-1].T-0.1) > 1e-9 {
			t.Fatalf("uneven sampling at %d", i)
		}
	}
}

func TestSamplePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rate 0 should panic")
		}
	}()
	Sample(Static(geom.Pt(0, 0)), 10, 0)
}

// Static returns a model that never moves — the fixed input of the
// sampling tests.
func Static(p geom.Point) Model { return staticModel{p} }

type staticModel struct{ p geom.Point }

func (s staticModel) At(float64) geom.Point { return s.p }
