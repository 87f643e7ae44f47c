// Package match locates the face whose signature vector best matches a
// sampling vector — the maximum-likelihood matching of Sec. 4.4.
//
// Heuristic is the matching engine. By default it runs Algorithm 2: a
// bounded best-first search along neighbor-face links from a warm-start
// face (the previous localization during continuous tracking), which the
// paper shows drops the time complexity to O(n²). Its Exhaustive mode
// scans every face instead — the O(n⁴) ergodic process the paper starts
// from — and TopM > 0 turns that scan into the top-M weighted-mean
// estimator of the DESIGN.md §5 ablation. Every entry point (Match,
// MatchWeighted with per-pair trust weights, MatchBatch over many lanes)
// runs the same search or scan on one of two lane distances: a popcount
// kernel over the division's SoA bitplanes for unweighted ternary
// queries, and a float kernel over Face.Signature for fractional (Def. 10)
// or trust-weighted queries. The two agree bit for bit wherever both
// apply, so the choice of kernel never changes a result.
//
// Exhaustive is an independent, deliberately plain full scan kept as
// the test oracle and for the complexity experiments.
//
// Concurrency: a Division is immutable after construction and may be
// shared freely. Exhaustive is stateless and safe for concurrent use;
// Heuristic owns per-matcher search scratch and is single-goroutine —
// give each goroutine (each Tracker) its own instance.
package match

import (
	"math"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/vector"
)

// Result is the outcome of one matching operation.
type Result struct {
	// Face is the best-matching face.
	Face *field.Face
	// Similarity is the Def. 7 similarity of the winning face (may be
	// +Inf on an exact match).
	Similarity float64
	// Estimate is the reported target location. For a unique winner it is
	// the face centroid; when several faces tie at the maximum similarity
	// the estimate is the mean of their centroids (Sec. 6).
	Estimate geom.Point
	// Tied is the number of faces sharing the maximum similarity.
	Tied int
	// Visited is the number of faces whose similarity was evaluated.
	Visited int
	// Rounds is the number of hill-climbing rounds (heuristic only).
	Rounds int
	// FellBack reports that the heuristic search converged below its
	// FallbackBelow threshold and rescanned exhaustively.
	FellBack bool
}

// Exhaustive scans all faces of the division. It is stateless and safe
// for concurrent use over a shared Division.
type Exhaustive struct {
	Div *field.Division
}

// Match finds the face best matching v; it needs no warm start.
func (m *Exhaustive) Match(v vector.Vector, _ *field.Face) Result {
	best := math.Inf(-1)
	var winner *field.Face
	var ties []*field.Face
	for i := range m.Div.Faces {
		f := &m.Div.Faces[i]
		s := vector.Similarity(v, f.Signature)
		switch {
		case s > best:
			best = s
			winner = f
			ties = ties[:0]
		case s == best:
			ties = append(ties, f)
		}
	}
	return finish(winner, ties, best, len(m.Div.Faces), 0)
}

// dist2 is the squared modified distance of Def. 8 (stars contribute 0),
// optionally trust-weighted (DESIGN.md §15):
//
//	d²(v, sig; w) = Σ_k w[k]·(v[k] − sig[k])²
//
// A nil w is the unweighted sum. An all-ones w gives the same bits,
// since IEEE multiplication by 1 is exact.
func dist2(v, sig vector.Vector, w []float64) float64 {
	var sum float64
	for k := range v {
		if v[k].IsStar() || sig[k].IsStar() {
			continue
		}
		d := float64(v[k] - sig[k])
		if w == nil {
			sum += d * d
		} else {
			sum += w[k] * (d * d)
		}
	}
	return sum
}

// term is component k's contribution to dist2.
func term(a, b vector.Value, w []float64, k int) float64 {
	if a.IsStar() || b.IsStar() {
		return 0
	}
	d := float64(a - b)
	if w == nil {
		return d * d
	}
	return w[k] * (d * d)
}

// simOf converts a squared distance to the Def. 7 similarity (+Inf on
// an exact match). It equals vector.Similarity's 1/√d² bit for bit.
func simOf(d2 float64) float64 {
	if d2 > 0 {
		return 1 / math.Sqrt(d2)
	}
	return math.Inf(1)
}

func finish(winner *field.Face, ties []*field.Face, sim float64, visited, rounds int) Result {
	r := Result{
		Face:       winner,
		Similarity: sim,
		Estimate:   winner.Centroid,
		Tied:       1 + len(ties),
		Visited:    visited,
		Rounds:     rounds,
	}
	if len(ties) > 0 {
		pts := make([]geom.Point, 0, len(ties)+1)
		pts = append(pts, winner.Centroid)
		for _, f := range ties {
			pts = append(pts, f.Centroid)
		}
		r.Estimate = geom.Centroid(pts)
	}
	return r
}
