package arrangement

import (
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
)

func TestFaceCountKnownConfigurations(t *testing.T) {
	tests := []struct {
		name    string
		circles []geom.Circle
		want    int
	}{
		{"empty plane", nil, 1},
		{"one circle", []geom.Circle{{C: geom.Pt(0, 0), R: 1}}, 2},
		{"two disjoint", []geom.Circle{
			{C: geom.Pt(0, 0), R: 1}, {C: geom.Pt(10, 0), R: 1},
		}, 3},
		{"two crossing", []geom.Circle{
			{C: geom.Pt(0, 0), R: 2}, {C: geom.Pt(2, 0), R: 2},
		}, 4},
		{"nested", []geom.Circle{
			{C: geom.Pt(0, 0), R: 5}, {C: geom.Pt(0, 0.1), R: 1},
		}, 3},
		{"three mutually crossing (generic)", []geom.Circle{
			{C: geom.Pt(0, 0), R: 2}, {C: geom.Pt(2, 0), R: 2}, {C: geom.Pt(1, 1.5), R: 2},
		}, 8},
	}
	for _, tt := range tests {
		if got := FaceCount(tt.circles); got != tt.want {
			t.Errorf("%s: FaceCount = %d, want %d", tt.name, got, tt.want)
		}
	}
}

func TestMaxFaces(t *testing.T) {
	// m circles pairwise crossing: m²−m+2.
	if got := MaxFaces(0); got != 1 {
		t.Errorf("MaxFaces(0) = %d", got)
	}
	if got := MaxFaces(1); got != 2 {
		t.Errorf("MaxFaces(1) = %d", got)
	}
	if got := MaxFaces(3); got != 8 {
		t.Errorf("MaxFaces(3) = %d", got)
	}
}

func TestFaceCountNeverExceedsMax(t *testing.T) {
	rng := randx.New(1)
	for trial := 0; trial < 20; trial++ {
		m := 2 + rng.Intn(10)
		circles := make([]geom.Circle, m)
		for i := range circles {
			circles[i] = geom.Circle{
				C: geom.Pt(rng.Uniform(0, 50), rng.Uniform(0, 50)),
				R: rng.Uniform(1, 20),
			}
		}
		if got := FaceCount(circles); got > MaxFaces(m) || got < 2 {
			t.Fatalf("FaceCount = %d outside [2, %d] for %d circles", got, MaxFaces(m), m)
		}
	}
}

func TestBoundaryCircles(t *testing.T) {
	nodes := []geom.Point{geom.Pt(30, 50), geom.Pt(70, 50)}
	circles, err := BoundaryCircles(nodes, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(circles) != 2 {
		t.Fatalf("got %d circles for one pair", len(circles))
	}
	// Mirror symmetry across the bisector x=50.
	if circles[0].R != circles[1].R {
		t.Errorf("mirror radii differ: %v vs %v", circles[0].R, circles[1].R)
	}
	if circles[0].C.X+circles[1].C.X != 100 {
		t.Errorf("centres not mirrored: %v, %v", circles[0].C, circles[1].C)
	}
	// The c-ratio circle encloses the far node j (first of the pair).
	if circles[0].C.Dist(nodes[1]) >= circles[0].R {
		t.Error("first circle should enclose node j")
	}
	if circles[1].C.Dist(nodes[0]) >= circles[1].R {
		t.Error("second circle should enclose node i")
	}
}

func TestBoundaryCirclesErrors(t *testing.T) {
	nodes := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}
	if _, err := BoundaryCircles(nodes, 1); err == nil {
		t.Error("C=1 should fail")
	}
	if _, err := BoundaryCircles(nodes, 0.5); err == nil {
		t.Error("C<1 should fail")
	}
}

func TestAnalyzeGrowsLikeN4(t *testing.T) {
	// The face count should grow superlinearly in n — the O(n⁴) claim.
	counts := make([]int, 0, 3)
	for _, n := range []int{4, 6, 8} {
		dep := deploy.Random(geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100)), n, randx.New(3))
		st, err := Analyze(dep.Positions(), 1.19)
		if err != nil {
			t.Fatal(err)
		}
		if st.Circles != n*(n-1) {
			t.Fatalf("n=%d: %d circles, want %d", n, st.Circles, n*(n-1))
		}
		counts = append(counts, st.Faces)
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("face counts not increasing: %v", counts)
	}
	// Superlinear: doubling n (4→8) should much more than double faces.
	if counts[2] < counts[0]*4 {
		t.Errorf("face growth too slow for O(n⁴): %v", counts)
	}
}

func TestAnalyzeSinglePair(t *testing.T) {
	nodes := []geom.Point{geom.Pt(30, 50), geom.Pt(70, 50)}
	st, err := Analyze(nodes, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint mirror circles: 3 faces, no intersections.
	if st.Faces != 3 || st.Intersections != 0 {
		t.Errorf("single pair stats = %+v, want 3 faces, 0 intersections", st)
	}
}

// MaxFaces returns the general-position upper bound for m circles:
// m² − m + 2 (every pair crossing twice).
func MaxFaces(m int) int {
	if m <= 0 {
		return 1
	}
	return m*m - m + 2
}
