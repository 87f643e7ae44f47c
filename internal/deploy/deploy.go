// Package deploy generates sensor-node deployments over the monitor field.
//
// The paper evaluates a regular grid and a uniform random deployment
// (Fig. 10), and its outdoor system uses 9 motes in a cross "+" layout
// (Fig. 13).
package deploy

import (
	"math"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

// Node is a deployed sensor node.
type Node struct {
	// ID is the node's index; pair enumeration (Def. 5/6) orders nodes by
	// ascending ID.
	ID int
	// Pos is the node's location in the field.
	Pos geom.Point
}

// Deployment is an ordered set of nodes inside a field.
type Deployment struct {
	Field geom.Rect
	Nodes []Node
}

// Positions returns the node positions in ID order.
func (d Deployment) Positions() []geom.Point {
	pts := make([]geom.Point, len(d.Nodes))
	for i, n := range d.Nodes {
		pts[i] = n.Pos
	}
	return pts
}

// N returns the number of nodes.
func (d Deployment) N() int { return len(d.Nodes) }

// Coverage reports what fraction of the field is sensed by at least
// kMin nodes with sensing range r, probed on a grid of the given step.
// FTTT needs several nodes (ideally ≥ 3-4) to hear the target for a
// discriminative sampling vector; the coverage curve explains the knee
// in the error-versus-n plots (Fig. 11(b)).
func (d Deployment) Coverage(r float64, kMin int, step float64) float64 {
	if step <= 0 || r <= 0 {
		return 0
	}
	covered, total := 0, 0
	for y := d.Field.Min.Y + step/2; y < d.Field.Max.Y; y += step {
		for x := d.Field.Min.X + step/2; x < d.Field.Max.X; x += step {
			total++
			p := geom.Pt(x, y)
			c := 0
			for _, n := range d.Nodes {
				if n.Pos.Dist(p) <= r {
					c++
					if c >= kMin {
						break
					}
				}
			}
			if c >= kMin {
				covered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// MeanDegree returns the average number of nodes sensing a field point
// (probed on a grid of the given step) — n·πR²/area in expectation for
// uniform random deployments, clipped by the field boundary.
func (d Deployment) MeanDegree(r float64, step float64) float64 {
	if step <= 0 || r <= 0 {
		return 0
	}
	sum, total := 0, 0
	for y := d.Field.Min.Y + step/2; y < d.Field.Max.Y; y += step {
		for x := d.Field.Min.X + step/2; x < d.Field.Max.X; x += step {
			total++
			p := geom.Pt(x, y)
			for _, n := range d.Nodes {
				if n.Pos.Dist(p) <= r {
					sum++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}

// Grid places n nodes on the most-square grid that fits n, spread evenly
// with a half-cell margin, matching the regular deployment of Fig. 10(a,b).
// If n is not a perfect rectangle the last row is left partially filled.
func Grid(field geom.Rect, n int) Deployment {
	if n <= 0 {
		return Deployment{Field: field}
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dx := field.Width() / float64(cols)
	dy := field.Height() / float64(rows)
	nodes := make([]Node, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		p := geom.Pt(
			field.Min.X+(float64(c)+0.5)*dx,
			field.Min.Y+(float64(r)+0.5)*dy,
		)
		nodes = append(nodes, Node{ID: i, Pos: p})
	}
	return Deployment{Field: field, Nodes: nodes}
}

// Random places n nodes independently and uniformly at random in the
// field, matching the random deployment of Fig. 10(c,d) and the
// performance simulations of Sec. 7.2.
func Random(field geom.Rect, n int, rng *randx.Stream) Deployment {
	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{
			ID: i,
			Pos: geom.Pt(
				rng.Uniform(field.Min.X, field.Max.X),
				rng.Uniform(field.Min.Y, field.Max.Y),
			),
		}
	}
	return Deployment{Field: field, Nodes: nodes}
}

// Cross places n nodes in a "+" shape centred in the field — the outdoor
// layout of Fig. 13 used 9 motes this way: one at the centre and the rest
// along the two axes at spacing arm/((n-1)/4) out to radius arm. For n
// not of the form 4k+1 the remaining nodes continue filling arms in
// round-robin order.
func Cross(field geom.Rect, n int, arm float64) Deployment {
	if n <= 0 {
		return Deployment{Field: field}
	}
	c := field.Center()
	nodes := make([]Node, 0, n)
	nodes = append(nodes, Node{ID: 0, Pos: c})
	dirs := []geom.Vec{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	ring := 1
	steps := int(math.Ceil(float64(n-1) / 4))
	if steps < 1 {
		steps = 1
	}
	spacing := arm / float64(steps)
	for len(nodes) < n {
		for _, dir := range dirs {
			if len(nodes) >= n {
				break
			}
			p := field.Clamp(c.Add(dir.Scale(spacing * float64(ring))))
			nodes = append(nodes, Node{ID: len(nodes), Pos: p})
		}
		ring++
	}
	return Deployment{Field: field, Nodes: nodes}
}
