// Package geom provides the 2-D computational geometry used by the FTTT
// tracker: points, vectors, rectangles, segments, circles and the
// Apollonius circles that bound a sensor pair's uncertain area.
//
// All coordinates are in metres in the monitor field's frame, X to the
// right and Y up, matching Fig. 6 of the paper.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used by approximate geometric comparisons.
const Eps = 1e-9

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vec) Point { return Point{p.X + v.X, p.Y + v.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vec { return Vec{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Vec is a displacement in the plane.
type Vec struct {
	X, Y float64
}

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product v·w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean length of v.
func (v Vec) Len() float64 { return math.Hypot(v.X, v.Y) }

// Len2 returns the squared length of v.
func (v Vec) Len2() float64 { return v.X*v.X + v.Y*v.Y }

// Unit returns v normalised to length 1. The zero vector is returned
// unchanged.
func (v Vec) Unit() Vec {
	l := v.Len()
	if l <= Eps {
		return Vec{}
	}
	return Vec{v.X / l, v.Y / l}
}

// Perp returns v rotated 90° counter-clockwise.
func (v Vec) Perp() Vec { return Vec{-v.Y, v.X} }

// Angle returns the angle of v in radians in (-π, π].
func (v Vec) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rect is an axis-aligned rectangle, the monitor field in particular.
type Rect struct {
	Min, Max Point
}

// NewRect builds a rectangle from two opposite corners in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Clamp returns the point of r nearest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Center returns the centre point of r.
func (r Rect) Center() Point { return r.Min.Mid(r.Max) }

// Segment is a directed line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the segment's length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// At returns the point A + t*(B-A); t in [0,1] stays on the segment.
func (s Segment) At(t float64) Point {
	return Point{s.A.X + t*(s.B.X-s.A.X), s.A.Y + t*(s.B.Y-s.A.Y)}
}

// DistTo returns the distance from p to the closest point of the segment.
func (s Segment) DistTo(p Point) float64 {
	ab := s.B.Sub(s.A)
	l2 := ab.Len2()
	if l2 <= Eps {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(ab) / l2
	t = math.Min(math.Max(t, 0), 1)
	return p.Dist(s.At(t))
}

// Circle is a circle with centre C and radius R.
type Circle struct {
	C Point
	R float64
}

// Apollonius returns the circle of Apollonius for points p and q with
// distance ratio lambda = d(x,p)/d(x,q): the locus of points x with
// d(x,p) = lambda * d(x,q). lambda must be positive and != 1 (the locus
// degenerates to the perpendicular bisector at lambda == 1, which is
// reported by ok == false).
//
// For the paper's uncertain boundary (eq. 4), take lambda = C > 1 for the
// circle enclosing q and lambda = 1/C for its mirror image enclosing p.
func Apollonius(p, q Point, lambda float64) (c Circle, ok bool) {
	if lambda <= 0 || math.Abs(lambda-1) <= Eps {
		return Circle{}, false
	}
	// Solve |x-p|^2 = lambda^2 |x-q|^2, a circle with
	// centre (p - lambda^2 q) / (1 - lambda^2) and radius
	// lambda*|p-q| / |1-lambda^2|.
	l2 := lambda * lambda
	den := 1 - l2
	cx := (p.X - l2*q.X) / den
	cy := (p.Y - l2*q.Y) / den
	r := lambda * p.Dist(q) / math.Abs(den)
	return Circle{C: Point{cx, cy}, R: r}, true
}

// CircleCircleIntersect returns the 0, 1 or 2 intersection points of two
// circles. Coincident circles return nil.
func CircleCircleIntersect(a, b Circle) []Point {
	d := a.C.Dist(b.C)
	if d <= Eps {
		return nil // concentric (possibly coincident)
	}
	if d > a.R+b.R+Eps || d < math.Abs(a.R-b.R)-Eps {
		return nil
	}
	// Distance from a.C to the radical line along the centre line.
	x := (d*d + a.R*a.R - b.R*b.R) / (2 * d)
	h2 := a.R*a.R - x*x
	u := b.C.Sub(a.C).Unit()
	foot := a.C.Add(u.Scale(x))
	if h2 < Eps {
		return []Point{foot}
	}
	h := math.Sqrt(h2)
	n := u.Perp()
	return []Point{foot.Add(n.Scale(h)), foot.Add(n.Scale(-h))}
}

// Centroid returns the arithmetic mean of pts. It returns the zero point
// for an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	n := float64(len(pts))
	return Point{sx / n, sy / n}
}
