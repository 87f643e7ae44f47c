package deploy

import (
	"fmt"
	"math"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
)

var field = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

func TestGrid(t *testing.T) {
	for _, n := range []int{1, 4, 9, 10, 16, 25, 40} {
		d := Grid(field, n)
		if d.N() != n {
			t.Fatalf("Grid(%d) placed %d nodes", n, d.N())
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Grid(%d): %v", n, err)
		}
	}
	// A perfect square grid is evenly spaced.
	d := Grid(field, 4)
	want := []geom.Point{{X: 25, Y: 25}, {X: 75, Y: 25}, {X: 25, Y: 75}, {X: 75, Y: 75}}
	for i, w := range want {
		if !d.Nodes[i].Pos.Eq(w) {
			t.Errorf("grid node %d at %v, want %v", i, d.Nodes[i].Pos, w)
		}
	}
}

func TestGridEmpty(t *testing.T) {
	d := Grid(field, 0)
	if d.N() != 0 {
		t.Errorf("Grid(0) placed %d nodes", d.N())
	}
	if !math.IsInf(d.MinSeparation(), 1) {
		t.Error("empty deployment MinSeparation should be +Inf")
	}
}

func TestRandom(t *testing.T) {
	d := Random(field, 30, randx.New(1))
	if d.N() != 30 {
		t.Fatalf("placed %d nodes", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic under the same seed.
	d2 := Random(field, 30, randx.New(1))
	for i := range d.Nodes {
		if d.Nodes[i].Pos != d2.Nodes[i].Pos {
			t.Fatal("Random not reproducible")
		}
	}
	// Roughly uniform: mean position near the centre.
	c := geom.Centroid(d.Positions())
	if c.Dist(field.Center()) > 20 {
		t.Errorf("centroid %v far from field centre", c)
	}
}

func TestCrossLayout(t *testing.T) {
	d := Cross(field, 9, 30)
	if d.N() != 9 {
		t.Fatalf("placed %d nodes", d.N())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	c := field.Center()
	if !d.Nodes[0].Pos.Eq(c) {
		t.Errorf("node 0 should be at centre, got %v", d.Nodes[0].Pos)
	}
	// Every node lies on one of the two axes through the centre.
	for _, n := range d.Nodes {
		onX := math.Abs(n.Pos.Y-c.Y) < 1e-9
		onY := math.Abs(n.Pos.X-c.X) < 1e-9
		if !onX && !onY {
			t.Errorf("node %d at %v off both axes", n.ID, n.Pos)
		}
	}
	// Outermost nodes reach the arm radius.
	maxDist := 0.0
	for _, n := range d.Nodes {
		if dist := n.Pos.Dist(c); dist > maxDist {
			maxDist = dist
		}
	}
	if math.Abs(maxDist-30) > 1e-9 {
		t.Errorf("arm radius = %v, want 30", maxDist)
	}
}

func TestCrossOddCounts(t *testing.T) {
	for _, n := range []int{1, 2, 5, 7, 13} {
		d := Cross(field, n, 40)
		if d.N() != n {
			t.Errorf("Cross(%d) placed %d", n, d.N())
		}
		if err := d.Validate(); err != nil {
			t.Errorf("Cross(%d): %v", n, err)
		}
	}
}

func TestValidateCatchesBadID(t *testing.T) {
	d := Grid(field, 3)
	d.Nodes[1].ID = 7
	if err := d.Validate(); err == nil {
		t.Error("bad ID should fail validation")
	}
}

func TestValidateCatchesOutside(t *testing.T) {
	d := Grid(field, 3)
	d.Nodes[2].Pos = geom.Pt(500, 500)
	if err := d.Validate(); err == nil {
		t.Error("outside node should fail validation")
	}
}

func TestCoverageFullAndEmpty(t *testing.T) {
	d := Grid(field, 25)
	// Sensing range larger than the field diagonal: everything covered.
	if got := d.Coverage(200, 1, 5); got != 1 {
		t.Errorf("huge range coverage = %v, want 1", got)
	}
	// Tiny range: almost nothing covered.
	if got := d.Coverage(1, 1, 5); got > 0.05 {
		t.Errorf("tiny range coverage = %v, want ≈0", got)
	}
	// Degenerate inputs.
	if d.Coverage(0, 1, 5) != 0 || d.Coverage(10, 1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestCoverageMonotone(t *testing.T) {
	rng := randx.New(7)
	small := Random(field, 8, rng.Split("a"))
	// Coverage grows with n, with r, and shrinks with kMin.
	big := Deployment{Field: field, Nodes: append([]Node(nil), small.Nodes...)}
	extra := Random(field, 8, rng.Split("b"))
	for i, n := range extra.Nodes {
		n.ID = len(big.Nodes) + i - i // keep IDs; Coverage ignores them
		big.Nodes = append(big.Nodes, Node{ID: len(big.Nodes), Pos: n.Pos})
	}
	if small.Coverage(30, 1, 5) > big.Coverage(30, 1, 5) {
		t.Error("coverage should not shrink when adding nodes")
	}
	if small.Coverage(20, 1, 5) > small.Coverage(40, 1, 5) {
		t.Error("coverage should grow with range")
	}
	if small.Coverage(30, 3, 5) > small.Coverage(30, 1, 5) {
		t.Error("k-coverage should not exceed 1-coverage")
	}
}

func TestMeanDegree(t *testing.T) {
	d := Random(field, 20, randx.New(9))
	got := d.MeanDegree(40, 5)
	// Expectation ≈ n·πR²/area clipped by boundary: 20·π·1600/10000 ≈ 10,
	// boundary clipping pulls it down ~25-35%.
	if got < 5 || got > 11 {
		t.Errorf("MeanDegree = %v, expected 5-11", got)
	}
	if d.MeanDegree(0, 5) != 0 || d.MeanDegree(40, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestMinSeparationGrid(t *testing.T) {
	d := Grid(field, 4)
	if got := d.MinSeparation(); math.Abs(got-50) > 1e-9 {
		t.Errorf("MinSeparation = %v, want 50", got)
	}
}

// Validate checks IDs are 0..n-1 in order and every node is in the field.
func (d Deployment) Validate() error {
	for i, n := range d.Nodes {
		if n.ID != i {
			return fmt.Errorf("deploy: node %d has ID %d, want %d", i, n.ID, i)
		}
		if !d.Field.Contains(n.Pos) {
			return fmt.Errorf("deploy: node %d at %v outside field", i, n.Pos)
		}
	}
	return nil
}

// MinSeparation returns the smallest pairwise distance, or +Inf for fewer
// than two nodes.
func (d Deployment) MinSeparation() float64 {
	min := math.Inf(1)
	for i := range d.Nodes {
		for j := i + 1; j < len(d.Nodes); j++ {
			if dist := d.Nodes[i].Pos.Dist(d.Nodes[j].Pos); dist < min {
				min = dist
			}
		}
	}
	return min
}
