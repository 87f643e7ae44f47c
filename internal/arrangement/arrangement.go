// Package arrangement provides exact computational-geometry counts for
// the uncertain-boundary structure: every sensor pair contributes two
// Apollonius circles (eq. 4), and the number of faces their arrangement
// creates is the paper's O(n⁴) storage bound (Sec. 4.4). The package
// counts faces analytically by sequential insertion — a circle crossed
// in p points by the circles already inserted adds p faces (or 1 if
// disjoint from all of them) — which is exact in general position, and
// lets the FaceComplexity experiment validate the approximate grid
// division's face counts against ground truth.
package arrangement

import (
	"fmt"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// BoundaryCircles returns the two Apollonius circles of every node pair
// for uncertainty constant c > 1, in pair-enumeration order (Def. 5):
// for pair (i, j) the circle around j (ratio c, "firmly nearer j"
// boundary) comes first, then its mirror image around i.
func BoundaryCircles(nodes []geom.Point, c float64) ([]geom.Circle, error) {
	if c <= 1 {
		return nil, fmt.Errorf("arrangement: need C > 1, got %v", c)
	}
	n := len(nodes)
	out := make([]geom.Circle, 0, 2*vector.NumPairs(n))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			// d(x, i) = c·d(x, j): the boundary enclosing j.
			cj, ok := geom.Apollonius(nodes[i], nodes[j], c)
			if !ok {
				return nil, fmt.Errorf("arrangement: degenerate pair (%d,%d)", i, j)
			}
			// d(x, j) = c·d(x, i): the mirror boundary enclosing i.
			ci, ok := geom.Apollonius(nodes[j], nodes[i], c)
			if !ok {
				return nil, fmt.Errorf("arrangement: degenerate pair (%d,%d)", i, j)
			}
			out = append(out, cj, ci)
		}
	}
	return out, nil
}

// FaceCount returns the number of faces (including the unbounded one)
// that the given circles create in the plane, assuming general position
// (no tangencies, no three circles through one point — true almost
// surely for random deployments). Sequential insertion: the first circle
// makes 2 faces; each later circle crossed in p > 0 points adds p faces,
// and a circle disjoint from all earlier ones adds 1.
func FaceCount(circles []geom.Circle) int {
	if len(circles) == 0 {
		return 1
	}
	faces := 2
	for i := 1; i < len(circles); i++ {
		p := 0
		for j := 0; j < i; j++ {
			p += len(geom.CircleCircleIntersect(circles[i], circles[j]))
		}
		if p == 0 {
			faces++
		} else {
			faces += p
		}
	}
	return faces
}

// Stats summarises the exact arrangement of a deployment's boundaries.
type Stats struct {
	Nodes         int
	Circles       int
	Intersections int
	Faces         int // includes the unbounded face
}

// Analyze computes the exact arrangement statistics for a deployment.
func Analyze(nodes []geom.Point, c float64) (Stats, error) {
	circles, err := BoundaryCircles(nodes, c)
	if err != nil {
		return Stats{}, err
	}
	inter := 0
	for i := range circles {
		for j := i + 1; j < len(circles); j++ {
			inter += len(geom.CircleCircleIntersect(circles[i], circles[j]))
		}
	}
	return Stats{
		Nodes:         len(nodes),
		Circles:       len(circles),
		Intersections: inter,
		Faces:         FaceCount(circles),
	}, nil
}
