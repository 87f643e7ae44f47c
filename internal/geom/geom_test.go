package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-2, 0), Pt(2, 0), 4},
		{Pt(0, -3), Pt(0, 3), 6},
	}
	for _, tt := range tests {
		if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > Eps {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(ax, ay), Pt(bx, by)
		return math.Abs(a.Dist(b)-b.Dist(a)) <= Eps
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMid(t *testing.T) {
	m := Pt(0, 0).Mid(Pt(4, 6))
	if !m.Eq(Pt(2, 3)) {
		t.Errorf("Mid = %v, want (2,3)", m)
	}
}

func TestVecOps(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Unit().Len(); math.Abs(got-1) > Eps {
		t.Errorf("Unit().Len() = %v, want 1", got)
	}
	if got := (Vec{}).Unit(); got != (Vec{}) {
		t.Errorf("zero Unit = %v, want zero", got)
	}
	if got := v.Dot(v.Perp()); math.Abs(got) > Eps {
		t.Errorf("v·v⊥ = %v, want 0", got)
	}
	if got, want := v.Scale(2), (Vec{6, 8}); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

// cross is the z-component of the 2-D cross product v×w.
func cross(v, w Vec) float64 { return v.X*w.Y - v.Y*w.X }

func TestPerpRotation(t *testing.T) {
	f := func(x, y float64) bool {
		v := Vec{x, y}
		p := v.Perp()
		// Same length, orthogonal, counter-clockwise (cross >= 0).
		return math.Abs(v.Len()-p.Len()) <= 1e-6*math.Max(1, v.Len()) &&
			math.Abs(v.Dot(p)) <= 1e-6*math.Max(1, v.Len2()) &&
			cross(v, p) >= 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(10, 20), Pt(0, 0))
	if r.Min != Pt(0, 0) || r.Max != Pt(10, 20) {
		t.Fatalf("NewRect corners wrong: %+v", r)
	}
	if r.Width() != 10 || r.Height() != 20 || r.Area() != 200 {
		t.Errorf("dims wrong: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if !r.Contains(Pt(5, 5)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 20)) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(Pt(-1, 5)) || r.Contains(Pt(5, 21)) {
		t.Error("Contains should exclude exterior")
	}
	if got := r.Clamp(Pt(-5, 30)); got != Pt(0, 20) {
		t.Errorf("Clamp = %v, want (0,20)", got)
	}
	if got := r.Center(); got != Pt(5, 10) {
		t.Errorf("Center = %v, want (5,10)", got)
	}
}

func TestClampInside(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(100, 100))
	f := func(x, y float64) bool {
		return r.Contains(r.Clamp(Pt(x, y)))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if s.Len() != 10 {
		t.Errorf("Len = %v", s.Len())
	}
	if got := s.At(0.5); !got.Eq(Pt(5, 0)) {
		t.Errorf("At(0.5) = %v", got)
	}
	if got := s.DistTo(Pt(5, 3)); math.Abs(got-3) > Eps {
		t.Errorf("DistTo mid = %v, want 3", got)
	}
	if got := s.DistTo(Pt(-4, 3)); math.Abs(got-5) > Eps {
		t.Errorf("DistTo beyond A = %v, want 5", got)
	}
	if got := s.DistTo(Pt(14, 3)); math.Abs(got-5) > Eps {
		t.Errorf("DistTo beyond B = %v, want 5", got)
	}
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if got := deg.DistTo(Pt(4, 5)); math.Abs(got-5) > Eps {
		t.Errorf("degenerate DistTo = %v, want 5", got)
	}
}

func TestApolloniusPaperForm(t *testing.T) {
	// Paper eq. 4: nodes at (d,0) and (-d,0), boundary circle has centre
	// ((C²+1)/(C²-1)·d, 0) and radius 2Cd/(C²-1).
	d, C := 3.0, 1.5
	p, q := Pt(d, 0), Pt(-d, 0)
	// Locus of x with d(x,q)/d(x,p) = C, i.e. points much nearer p:
	// Apollonius(q, p, C) in our parameterisation gives d(x,q)=C·d(x,p).
	c, ok := Apollonius(q, p, C)
	if !ok {
		t.Fatal("Apollonius returned !ok")
	}
	c2 := C * C
	wantCx := (c2 + 1) / (c2 - 1) * d
	wantR := 2 * C * d / (c2 - 1)
	if math.Abs(c.C.X-wantCx) > 1e-9 || math.Abs(c.C.Y) > 1e-9 {
		t.Errorf("centre = %v, want (%v, 0)", c.C, wantCx)
	}
	if math.Abs(c.R-wantR) > 1e-9 {
		t.Errorf("radius = %v, want %v", c.R, wantR)
	}
}

func TestApolloniusMembership(t *testing.T) {
	// Every point of the Apollonius circle satisfies the distance ratio.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := Pt(rng.Float64()*50, rng.Float64()*50)
		q := Pt(rng.Float64()*50+60, rng.Float64()*50)
		lambda := 0.2 + rng.Float64()*3
		if math.Abs(lambda-1) < 0.05 {
			continue
		}
		c, ok := Apollonius(p, q, lambda)
		if !ok {
			t.Fatalf("unexpected !ok for lambda=%v", lambda)
		}
		for _, theta := range []float64{0, 1, 2, 3, 4, 5, 6} {
			x := Pt(c.C.X+c.R*math.Cos(theta), c.C.Y+c.R*math.Sin(theta))
			ratio := x.Dist(p) / x.Dist(q)
			if math.Abs(ratio-lambda) > 1e-6*math.Max(1, lambda) {
				t.Fatalf("ratio at θ=%v is %v, want %v", theta, ratio, lambda)
			}
		}
	}
}

func TestApolloniusDegenerate(t *testing.T) {
	if _, ok := Apollonius(Pt(0, 0), Pt(1, 0), 1); ok {
		t.Error("lambda=1 should be degenerate")
	}
	if _, ok := Apollonius(Pt(0, 0), Pt(1, 0), 0); ok {
		t.Error("lambda=0 should be rejected")
	}
	if _, ok := Apollonius(Pt(0, 0), Pt(1, 0), -2); ok {
		t.Error("negative lambda should be rejected")
	}
}

func TestApolloniusMirror(t *testing.T) {
	// The lambda and 1/lambda circles are mirror images across the
	// perpendicular bisector (paper Fig. 2).
	p, q := Pt(-2, 0), Pt(2, 0)
	a, _ := Apollonius(p, q, 2)
	b, _ := Apollonius(p, q, 0.5)
	if math.Abs(a.R-b.R) > 1e-9 {
		t.Errorf("mirror radii differ: %v vs %v", a.R, b.R)
	}
	if math.Abs(a.C.X+b.C.X) > 1e-9 { // symmetric about x=0
		t.Errorf("centres not mirrored: %v vs %v", a.C, b.C)
	}
}

func TestCircleCircleIntersect(t *testing.T) {
	a := Circle{Pt(0, 0), 5}
	b := Circle{Pt(6, 0), 5}
	pts := CircleCircleIntersect(a, b)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for _, p := range pts {
		if math.Abs(a.C.Dist(p)-a.R) > 1e-9 || math.Abs(b.C.Dist(p)-b.R) > 1e-9 {
			t.Errorf("point %v not on both circles", p)
		}
	}
	// Tangent externally.
	c := Circle{Pt(10, 0), 5}
	if pts := CircleCircleIntersect(a, c); len(pts) != 1 {
		t.Errorf("tangent: got %d, want 1", len(pts))
	}
	// Disjoint.
	d := Circle{Pt(100, 0), 5}
	if pts := CircleCircleIntersect(a, d); len(pts) != 0 {
		t.Errorf("disjoint: got %d, want 0", len(pts))
	}
	// One inside another without touching.
	e := Circle{Pt(0.5, 0), 1}
	if pts := CircleCircleIntersect(a, e); len(pts) != 0 {
		t.Errorf("nested: got %d, want 0", len(pts))
	}
	// Concentric.
	if pts := CircleCircleIntersect(a, Circle{Pt(0, 0), 3}); pts != nil {
		t.Errorf("concentric: got %v, want nil", pts)
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := Centroid(pts); !got.Eq(Pt(1, 1)) {
		t.Errorf("Centroid = %v, want (1,1)", got)
	}
	if got := Centroid(nil); got != (Point{}) {
		t.Errorf("empty Centroid = %v, want origin", got)
	}
}

// quickCfg bounds quick.Check inputs to a sane coordinate range so the
// float64 generator does not produce astronomically large values that
// overflow intermediate arithmetic.
func quickCfg() *quick.Config {
	rng := rand.New(rand.NewSource(42))
	return &quick.Config{
		MaxCount: 300,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(r.Float64()*2000 - 1000)
			}
		},
	}
}
