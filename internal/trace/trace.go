// Package trace provides import/export of target traces and tracking
// results as CSV for spreadsheets and plotting scripts, and a velocity
// estimator over tracked points (finite differences with a smoothing
// window), matching the velocity-estimation use-cases the paper's
// related work covers [4][5].
package trace

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fttt/internal/geom"
)

// Point is one timestamped target position, optionally with an estimate.
type Point struct {
	T    float64
	True geom.Point
	// Est is the tracker's estimate; nil for a pure ground-truth trace.
	Est *geom.Point
}

// Err returns the tracking error, or -1 when no estimate is present.
func (p Point) Err() float64 {
	if p.Est == nil {
		return -1
	}
	return p.Est.Dist(p.True)
}

// Trace is an ordered series of points.
type Trace []Point

// WriteCSV emits "t,true_x,true_y[,est_x,est_y,err]" rows. Estimate
// columns appear when any point has an estimate; points without one get
// empty cells.
func (tr Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	hasEst := false
	for _, p := range tr {
		if p.Est != nil {
			hasEst = true
			break
		}
	}
	header := []string{"t", "true_x", "true_y"}
	if hasEst {
		header = append(header, "est_x", "est_y", "err")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	for _, p := range tr {
		rec := []string{f(p.T), f(p.True.X), f(p.True.Y)}
		if hasEst {
			if p.Est != nil {
				rec = append(rec, f(p.Est.X), f(p.Est.Y), f(p.Err()))
			} else {
				rec = append(rec, "", "", "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses traces written by WriteCSV (estimate columns optional).
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	header := recs[0]
	if len(header) < 3 || header[0] != "t" {
		return nil, fmt.Errorf("trace: unexpected header %v", header)
	}
	hasEst := len(header) >= 6
	var tr Trace
	for li, rec := range recs[1:] {
		if len(rec) < 3 {
			return nil, fmt.Errorf("trace: row %d too short", li+2)
		}
		p := Point{}
		vals := make([]float64, 3)
		for i := 0; i < 3; i++ {
			v, err := strconv.ParseFloat(rec[i], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d col %d: %v", li+2, i, err)
			}
			vals[i] = v
		}
		p.T = vals[0]
		p.True = geom.Pt(vals[1], vals[2])
		if hasEst && len(rec) >= 6 && rec[3] != "" {
			ex, err1 := strconv.ParseFloat(rec[3], 64)
			ey, err2 := strconv.ParseFloat(rec[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("trace: row %d bad estimate", li+2)
			}
			e := geom.Pt(ex, ey)
			p.Est = &e
		}
		tr = append(tr, p)
	}
	return tr, nil
}

// Errors returns the per-point errors of the points that carry estimates.
func (tr Trace) Errors() []float64 {
	var errs []float64
	for _, p := range tr {
		if p.Est != nil {
			errs = append(errs, p.Err())
		}
	}
	return errs
}

// ParseXYLines parses the simple "t x y" line format (one position per
// line; blank lines and lines starting with '#' are skipped) — the
// stdin format of cmd/fttt-track.
func ParseXYLines(r io.Reader) (Trace, error) {
	var out Trace
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		var t, x, y float64
		if _, err := fmt.Sscan(text, &t, &x, &y); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		out = append(out, Point{T: t, True: geom.Pt(x, y)})
	}
	return out, sc.Err()
}

// VelocityEstimate is a finite-difference speed estimate at one instant.
type VelocityEstimate struct {
	T     float64
	Speed float64  // m/s
	Dir   geom.Vec // unit direction (zero when stationary)
}

// EstimateVelocities derives target velocity from the estimated (or, if
// absent, true) positions using central differences over a smoothing
// window of 2·halfWindow+1 points — the simple velocity estimator the
// model-based related work builds into its filters [4][5]. halfWindow
// must be ≥ 1; fewer than 2·halfWindow+1 points yield no estimates.
func (tr Trace) EstimateVelocities(halfWindow int) []VelocityEstimate {
	if halfWindow < 1 {
		panic(fmt.Sprintf("trace: halfWindow must be ≥ 1, got %d", halfWindow))
	}
	pos := func(p Point) geom.Point {
		if p.Est != nil {
			return *p.Est
		}
		return p.True
	}
	var out []VelocityEstimate
	for i := halfWindow; i < len(tr)-halfWindow; i++ {
		a, b := tr[i-halfWindow], tr[i+halfWindow]
		dt := b.T - a.T
		if dt <= 0 {
			continue
		}
		d := pos(b).Sub(pos(a))
		speed := d.Len() / dt
		out = append(out, VelocityEstimate{
			T:     tr[i].T,
			Speed: speed,
			Dir:   d.Unit(),
		})
	}
	return out
}
