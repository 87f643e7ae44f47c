package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fttt/internal/geom"
)

func estPt(x, y float64) *geom.Point {
	p := geom.Pt(x, y)
	return &p
}

func sample() Trace {
	return Trace{
		{T: 0, True: geom.Pt(1, 2), Est: estPt(1.5, 2.5)},
		{T: 0.5, True: geom.Pt(2, 3)},
		{T: 1, True: geom.Pt(3, 4), Est: estPt(3, 4)},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr) {
		t.Fatalf("got %d points", len(got))
	}
	for i := range tr {
		if got[i].T != tr[i].T || !got[i].True.Eq(tr[i].True) {
			t.Fatalf("point %d mismatch: %+v vs %+v", i, got[i], tr[i])
		}
		if (got[i].Est == nil) != (tr[i].Est == nil) {
			t.Fatalf("point %d estimate presence mismatch", i)
		}
		if got[i].Est != nil && !got[i].Est.Eq(*tr[i].Est) {
			t.Fatalf("point %d estimate mismatch", i)
		}
	}
}

func TestCSVNoEstimates(t *testing.T) {
	tr := Trace{{T: 0, True: geom.Pt(1, 1)}, {T: 1, True: geom.Pt(2, 2)}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "est_x") {
		t.Error("pure truth trace should not emit estimate columns")
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Est != nil {
		t.Error("no estimate expected")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"x,y\n1,2\n",
		"t,true_x,true_y\nnope,1,2\n",
		"t,true_x,true_y,est_x,est_y,err\n0,1,2,bad,5,0\n",
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestErrAndErrors(t *testing.T) {
	tr := sample()
	if got := tr[0].Err(); math.Abs(got-math.Sqrt(0.5)) > 1e-9 {
		t.Errorf("Err = %v", got)
	}
	if got := tr[1].Err(); got != -1 {
		t.Errorf("missing estimate Err = %v, want -1", got)
	}
	errs := tr.Errors()
	if len(errs) != 2 {
		t.Fatalf("Errors len = %d", len(errs))
	}
	if errs[1] != 0 {
		t.Errorf("exact estimate error = %v", errs[1])
	}
}

func TestEstimateVelocities(t *testing.T) {
	// Constant velocity (3,4)/s → speed 5.
	var tr Trace
	for i := 0; i <= 10; i++ {
		t0 := float64(i) * 0.5
		tr = append(tr, Point{T: t0, True: geom.Pt(3*t0, 4*t0)})
	}
	vs := tr.EstimateVelocities(2)
	if len(vs) != len(tr)-4 {
		t.Fatalf("got %d estimates", len(vs))
	}
	for _, v := range vs {
		if math.Abs(v.Speed-5) > 1e-9 {
			t.Fatalf("speed = %v, want 5", v.Speed)
		}
		if math.Abs(v.Dir.X-0.6) > 1e-9 || math.Abs(v.Dir.Y-0.8) > 1e-9 {
			t.Fatalf("dir = %v", v.Dir)
		}
	}
}

func TestEstimateVelocitiesUsesEstimates(t *testing.T) {
	// Estimates present: velocities derive from them, not the truth.
	tr := Trace{
		{T: 0, True: geom.Pt(0, 0), Est: estPt(0, 0)},
		{T: 1, True: geom.Pt(100, 0), Est: estPt(1, 0)},
		{T: 2, True: geom.Pt(200, 0), Est: estPt(2, 0)},
	}
	vs := tr.EstimateVelocities(1)
	if len(vs) != 1 {
		t.Fatalf("got %d estimates", len(vs))
	}
	if math.Abs(vs[0].Speed-1) > 1e-9 {
		t.Errorf("speed from estimates = %v, want 1", vs[0].Speed)
	}
}

func TestEstimateVelocitiesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("halfWindow=0 should panic")
		}
	}()
	Trace{}.EstimateVelocities(0)
}

func TestEstimateVelocitiesShortTrace(t *testing.T) {
	tr := Trace{{T: 0, True: geom.Pt(0, 0)}, {T: 1, True: geom.Pt(1, 1)}}
	if vs := tr.EstimateVelocities(1); len(vs) != 0 {
		t.Errorf("short trace should yield none, got %d", len(vs))
	}
}

func TestEstimateVelocitiesSkipsZeroDt(t *testing.T) {
	tr := Trace{
		{T: 0, True: geom.Pt(0, 0)},
		{T: 0, True: geom.Pt(1, 0)},
		{T: 0, True: geom.Pt(2, 0)},
	}
	if vs := tr.EstimateVelocities(1); len(vs) != 0 {
		t.Errorf("zero-dt windows should be skipped, got %d", len(vs))
	}
}

func TestParseXYLines(t *testing.T) {
	in := "# comment\n0 10 20\n\n0.5  12.5 21\n# trailing\n1 15 22\n"
	tr, err := ParseXYLines(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 {
		t.Fatalf("got %d points", len(tr))
	}
	if tr[1].T != 0.5 || !tr[1].True.Eq(geom.Pt(12.5, 21)) {
		t.Errorf("point 1 = %+v", tr[1])
	}
}

func TestParseXYLinesErrors(t *testing.T) {
	if _, err := ParseXYLines(strings.NewReader("0 10\n")); err == nil {
		t.Error("short line should fail")
	}
	if _, err := ParseXYLines(strings.NewReader("zero 1 2\n")); err == nil {
		t.Error("non-numeric should fail")
	}
	tr, err := ParseXYLines(strings.NewReader(""))
	if err != nil || len(tr) != 0 {
		t.Errorf("empty input should parse to empty trace: %v %v", tr, err)
	}
}
