package sampling

import (
	"math"
	"slices"
	"testing"

	"fttt/internal/deploy"
	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/rf"
	"fttt/internal/vector"
)

var fieldRect = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

// groupFromMatrix builds a Group directly from literal RSS rows.
func groupFromMatrix(rows [][]float64) *Group {
	n := len(rows[0])
	rep := make([]bool, n)
	for i := range rep {
		rep[i] = true
	}
	return &Group{RSS: rows, Reported: rep}
}

func TestPaperFig5Example(t *testing.T) {
	// Fig. 5: four sensors, six instants; only pair (3,4) flips (IDs are
	// 1-based in the paper). Node 2 is loudest, then 1, then 3/4 flip.
	// Construct RSS realising exactly that and check the sampling vector
	// [-1,1,1,1,1,0] (pairs (1,2),(1,3),(1,4),(2,3),(2,4),(3,4)).
	g := groupFromMatrix([][]float64{
		// n1, n2, n3, n4
		{50, 60, 40, 39},
		{51, 61, 40, 41}, // (3,4) flips here
		{50, 59, 42, 41},
		{52, 60, 41, 40},
		{50, 62, 40, 39},
		{51, 60, 42, 41},
	})
	got := g.Vector()
	want := vector.FromInts(-1, 1, 1, 1, 1, 0)
	if !slices.Equal(got, want) {
		t.Errorf("Vector = %v, want %v", got, want)
	}
}

func TestPaperSection6ExtendedExample(t *testing.T) {
	// Sec. 6 / Fig. 9: six samplings, pair (n1, n2) has four sequential
	// orders (1,2) and two reverse (2,1) → extended value
	// (4-2)/6 = 1/3 ≈ 0.33; the basic value is 0.
	g := groupFromMatrix([][]float64{
		{60, 50},
		{60, 50},
		{60, 50},
		{60, 50},
		{50, 60},
		{50, 60},
	})
	basic := g.Vector()
	if basic[0] != vector.Flipped {
		t.Errorf("basic value = %v, want Flipped", basic[0])
	}
	ext := g.ExtendedVector()
	if math.Abs(float64(ext[0])-1.0/3) > 1e-12 {
		t.Errorf("extended value = %v, want 1/3", ext[0])
	}
}

func TestVectorOrdinalCases(t *testing.T) {
	g := groupFromMatrix([][]float64{
		{10, 5, 1},
		{11, 6, 2},
	})
	got := g.Vector()
	want := vector.FromInts(1, 1, 1) // strictly descending by ID
	if !slices.Equal(got, want) {
		t.Errorf("Vector = %v, want %v", got, want)
	}
	gotExt := g.ExtendedVector()
	if !slices.Equal(gotExt, want) {
		t.Errorf("ExtendedVector = %v, want %v for fully ordinal group", gotExt, want)
	}
}

func TestVectorReverseOrdinal(t *testing.T) {
	g := groupFromMatrix([][]float64{
		{1, 5, 10},
		{2, 6, 11},
	})
	want := vector.FromInts(-1, -1, -1)
	if got := g.Vector(); !slices.Equal(got, want) {
		t.Errorf("Vector = %v, want %v", got, want)
	}
}

// sameVector reports whether a and b agree in every component, Star
// (a NaN) matching only Star.
func sameVector(a, b vector.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y vector.Value) bool { return x == y || x.IsStar() && y.IsStar() })
}

func TestFaultFillingEq6(t *testing.T) {
	// Paper Sec. 4.4(3) example: four nodes, only n1 and n3 report with
	// rss_1 > rss_3. Pairs: (1,2)=1, (1,3)=1, (1,4)=1, (2,3)=-1,
	// (2,4)=*, (3,4)=1.
	g := &Group{
		RSS: [][]float64{
			{50, 0, 40, 0},
			{51, 0, 41, 0},
		},
		Reported: []bool{true, false, true, false},
	}
	got := g.Vector()
	want := vector.Vector{1, 1, 1, -1, vector.Star, 1}
	if !sameVector(got, want) {
		t.Errorf("Vector = %v, want %v", got, want)
	}
	// Extended vector must use the same eq. 6 values on fault pairs.
	ext := g.ExtendedVector()
	if ext[4].IsStar() != true || ext[0] != 1 || ext[3] != -1 {
		t.Errorf("ExtendedVector fault cases = %v", ext)
	}
}

func TestAllSilent(t *testing.T) {
	g := &Group{
		RSS:      [][]float64{{0, 0}, {0, 0}},
		Reported: []bool{false, false},
	}
	got := g.Vector()
	if !got[0].IsStar() {
		t.Errorf("all-silent pair = %v, want Star", got[0])
	}
	if g.NumReported() != 0 {
		t.Errorf("NumReported = %d", g.NumReported())
	}
}

func TestSamplerNoiselessMatchesGeometry(t *testing.T) {
	// With zero noise, the sampling vector's certain components must agree
	// with the true distance order.
	d := deploy.Grid(fieldRect, 4)
	m := rf.Default()
	m.SigmaX = 0
	s := &Sampler{Model: m, Nodes: d.Positions()}
	pos := geom.Pt(20, 20) // nearest node 0 at (25,25)
	g := s.Sample(pos, 5, randx.New(1))
	v := g.Vector()
	n := 4
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			di, dj := d.Nodes[i].Pos.Dist(pos), d.Nodes[j].Pos.Dist(pos)
			got := v.Get(i, j, n)
			switch {
			case di < dj && got != vector.Nearer:
				t.Errorf("pair (%d,%d): d_i<d_j but value %v", i, j, got)
			case di > dj && got != vector.Farther:
				t.Errorf("pair (%d,%d): d_i>d_j but value %v", i, j, got)
			}
		}
	}
}

func TestSamplerRangeLimitsReports(t *testing.T) {
	d := deploy.Grid(fieldRect, 4)
	s := &Sampler{Model: rf.Default(), Nodes: d.Positions(), Range: 30}
	g := s.Sample(geom.Pt(25, 25), 3, randx.New(2)) // on node 0
	if !g.Reported[0] {
		t.Error("node 0 should report")
	}
	if g.Reported[3] { // node 3 at (75,75) is ~70 m away
		t.Error("node 3 out of range should not report")
	}
}

func TestSamplerReportLoss(t *testing.T) {
	d := deploy.Grid(fieldRect, 9)
	s := &Sampler{Model: rf.Default(), Nodes: d.Positions(), ReportLoss: 0.5}
	rng := randx.New(3)
	total, reported := 0, 0
	for trial := 0; trial < 200; trial++ {
		g := s.Sample(geom.Pt(50, 50), 3, rng.SplitN("trial", trial))
		total += g.N()
		reported += g.NumReported()
	}
	frac := float64(reported) / float64(total)
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("report fraction = %v, want ≈0.5", frac)
	}
}

func TestSamplerReproducible(t *testing.T) {
	d := deploy.Grid(fieldRect, 4)
	s := &Sampler{Model: rf.Default(), Nodes: d.Positions()}
	g1 := s.Sample(geom.Pt(40, 40), 5, randx.New(9))
	g2 := s.Sample(geom.Pt(40, 40), 5, randx.New(9))
	for t0 := range g1.RSS {
		for i := range g1.RSS[t0] {
			if g1.RSS[t0][i] != g2.RSS[t0][i] {
				t.Fatal("sampler not reproducible")
			}
		}
	}
}

func TestSamplerPanicsOnBadK(t *testing.T) {
	d := deploy.Grid(fieldRect, 4)
	s := &Sampler{Model: rf.Default(), Nodes: d.Positions()}
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	s.Sample(geom.Pt(0, 0), 0, randx.New(1))
}

func TestPairCounts(t *testing.T) {
	g := groupFromMatrix([][]float64{
		{2, 1},
		{1, 2},
		{3, 0},
	})
	wins, losses, und := g.PairCounts(0, 1)
	if wins != 2 || losses != 1 || und != 0 {
		t.Errorf("PairCounts = (%d,%d,%d), want (2,1,0)", wins, losses, und)
	}
}

func TestPairCountsResolution(t *testing.T) {
	g := groupFromMatrix([][]float64{
		{10, 9.8}, // within ε=0.5: undistinguishable
		{10, 8},   // clear win
		{7, 10},   // clear loss
	})
	g.Epsilon = 0.5
	wins, losses, und := g.PairCounts(0, 1)
	if wins != 1 || losses != 1 || und != 1 {
		t.Errorf("PairCounts = (%d,%d,%d), want (1,1,1)", wins, losses, und)
	}
	// An undistinguishable instant prevents an ordinal pair value.
	g2 := groupFromMatrix([][]float64{
		{10, 9.8},
		{10, 8},
	})
	g2.Epsilon = 0.5
	if got := g2.Vector()[0]; got != vector.Flipped {
		t.Errorf("pair with resolution tie = %v, want Flipped", got)
	}
	// Extended value counts only decisive instants: (1-0)/2 = 0.5.
	if got := g2.ExtendedVector()[0]; got != 0.5 {
		t.Errorf("extended with resolution tie = %v, want 0.5", got)
	}
}

func TestMeanRSS(t *testing.T) {
	g := groupFromMatrix([][]float64{
		{10, 20},
		{30, 40},
	})
	means, ids := g.MeanRSS()
	if len(means) != 2 || means[0] != 20 || means[1] != 30 {
		t.Errorf("MeanRSS = %v", means)
	}
	if ids[0] != 0 || ids[1] != 1 {
		t.Errorf("ids = %v", ids)
	}
	g.Reported[0] = false
	means, ids = g.MeanRSS()
	if len(means) != 1 || means[0] != 30 || ids[0] != 1 {
		t.Errorf("MeanRSS with fault = %v ids %v", means, ids)
	}
}

func TestValidate(t *testing.T) {
	good := groupFromMatrix([][]float64{{1, 2}, {3, 4}})
	if err := good.Validate(); err != nil {
		t.Errorf("valid group rejected: %v", err)
	}
	ragged := &Group{RSS: [][]float64{{1, 2}, {3}}, Reported: []bool{true, true}}
	if err := ragged.Validate(); err == nil {
		t.Error("ragged matrix should fail")
	}
	short := &Group{RSS: [][]float64{{1, 2}}, Reported: []bool{true}}
	if err := short.Validate(); err == nil {
		t.Error("short Reported should fail")
	}
}

func TestExtendedVectorRange(t *testing.T) {
	// Extended values always lie in [-1, 1] and agree in sign tendency
	// with the basic values.
	d := deploy.Random(fieldRect, 8, randx.New(4))
	s := &Sampler{Model: rf.Default(), Nodes: d.Positions()}
	rng := randx.New(5)
	for trial := 0; trial < 50; trial++ {
		g := s.Sample(geom.Pt(rng.Uniform(0, 100), rng.Uniform(0, 100)), 7, rng.SplitN("t", trial))
		basic, ext := g.Vector(), g.ExtendedVector()
		for k := range ext {
			if ext[k].IsStar() {
				continue
			}
			if ext[k] < -1 || ext[k] > 1 {
				t.Fatalf("extended value %v out of range", ext[k])
			}
			switch basic[k] {
			case vector.Nearer:
				if ext[k] != 1 {
					t.Fatalf("ordinal pair should have extended value 1, got %v", ext[k])
				}
			case vector.Farther:
				if ext[k] != -1 {
					t.Fatalf("reverse pair should have extended value -1, got %v", ext[k])
				}
			case vector.Flipped:
				if ext[k] <= -1 || ext[k] >= 1 {
					t.Fatalf("flipped pair should be strictly inside (-1,1), got %v", ext[k])
				}
			}
		}
	}
}

func TestFlippedMoreLikelyNearBisector(t *testing.T) {
	// The probability that the pair value is Flipped should be higher for
	// a target on the pair's bisector than far from it.
	nodes := []geom.Point{geom.Pt(30, 50), geom.Pt(70, 50)}
	s := &Sampler{Model: rf.Default(), Nodes: nodes}
	rng := randx.New(6)
	count := func(pos geom.Point) int {
		c := 0
		for trial := 0; trial < 300; trial++ {
			g := s.Sample(pos, 5, rng.SplitN("x", trial))
			if g.Vector()[0] == vector.Flipped {
				c++
			}
		}
		return c
	}
	near := count(geom.Pt(50, 50)) // on bisector
	far := count(geom.Pt(31, 50))  // on top of node 0
	if near <= far {
		t.Errorf("flips near bisector (%d) should exceed flips near node (%d)", near, far)
	}
}
