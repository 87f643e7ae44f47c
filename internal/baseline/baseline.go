// Package baseline implements the two comparison trackers of the paper's
// evaluation (Sec. 7):
//
//   - DirectMLE — Sequence-Based Localization [24]: the field is divided
//     by perpendicular bisectors into certain faces, each with a
//     reference rank sequence (node IDs by ascending distance from the
//     face centroid); a localization sorts the measured RSS into a
//     detection sequence and picks the face whose reference sequence has
//     the maximum Spearman rank correlation.
//
//   - PM — the optimal path-matching MLE of [22]: the same per-face rank
//     correlation becomes the per-step emission score of a
//     velocity-constrained dynamic program over face centroids, realised
//     here as a beam-limited Viterbi filter. PM requires assuming the
//     target's maximum velocity, the constraint the paper criticises.
//
// Both baselines rely on certain detection sequences, so both divide the
// field with the degenerate C = 1 classifier (Fig. 3(a)); their errors
// under noise are exactly what FTTT's uncertain-area machinery avoids.
package baseline

import (
	"fmt"
	"math"
	"sort"

	"fttt/internal/field"
	"fttt/internal/geom"
	"fttt/internal/sampling"
	"fttt/internal/seq"
)

// faceOrders precomputes, for every face, the node IDs sorted by ascending
// distance from the face centroid (i.e. by descending expected RSS).
type faceOrders struct {
	div    *field.Division
	orders [][]int // orders[faceID] is the full reference sequence
}

func newFaceOrders(div *field.Division, nodes []geom.Point) *faceOrders {
	fo := &faceOrders{div: div, orders: make([][]int, len(div.Faces))}
	ids := make([]int, len(nodes))
	for i := range ids {
		ids[i] = i
	}
	for fi := range div.Faces {
		c := div.Faces[fi].Centroid
		fo.orders[fi] = seq.ByAscending(ids, func(id int) float64 {
			return nodes[id].Dist(c)
		})
	}
	return fo
}

// restricted returns the face's reference sequence filtered to the given
// reported-ID set, preserving order.
func (fo *faceOrders) restricted(faceID int, reported map[int]bool) []int {
	full := fo.orders[faceID]
	out := make([]int, 0, len(reported))
	for _, id := range full {
		if reported[id] {
			out = append(out, id)
		}
	}
	return out
}

// emission scores how well the measured detection sequence fits a face:
// Spearman's rho in [-1, 1], or -1 when the sequence is too short to
// correlate.
func (fo *faceOrders) emission(faceID int, detection []int, reported map[int]bool) float64 {
	if len(detection) < 2 {
		return -1
	}
	ref := fo.restricted(faceID, reported)
	rho, err := seq.Spearman(detection, ref)
	if err != nil {
		return -1
	}
	return rho
}

// detectionFromGroup reduces a grouping sampling to one certain detection
// sequence by mean RSS over the group's instants — the baselines receive
// the same raw samples FTTT does, reduced the only way a certain-sequence
// method can use them.
func detectionFromGroup(g *sampling.Group) (detection []int, reported map[int]bool) {
	means, ids := g.MeanRSS()
	reported = make(map[int]bool, len(ids))
	byID := make(map[int]float64, len(ids))
	for i, id := range ids {
		reported[id] = true
		byID[id] = means[i]
	}
	detection = seq.ByDescending(ids, func(id int) float64 { return byID[id] })
	return detection, reported
}

// DirectMLE is the Sequence-Based Localization tracker [24].
type DirectMLE struct {
	fo *faceOrders
}

// NewDirectMLE divides the field with perpendicular bisectors (C = 1) at
// the given grid cell size and prepares the reference sequences.
func NewDirectMLE(fieldRect geom.Rect, nodes []geom.Point, cellSize float64) (*DirectMLE, error) {
	rc, err := field.NewRatioClassifier(nodes, 1)
	if err != nil {
		return nil, err
	}
	div, err := field.Divide(fieldRect, rc, cellSize)
	if err != nil {
		return nil, err
	}
	return NewDirectMLEWithDivision(div, nodes), nil
}

// NewDirectMLEWithDivision builds the tracker over an existing certain
// (C = 1) division, so it can be shared with a PM instance.
func NewDirectMLEWithDivision(div *field.Division, nodes []geom.Point) *DirectMLE {
	return &DirectMLE{fo: newFaceOrders(div, nodes)}
}

// LocalizeGroup estimates the target position from one grouping sampling.
// Ties at the maximum correlation average their centroids.
func (d *DirectMLE) LocalizeGroup(g *sampling.Group) geom.Point {
	detection, reported := detectionFromGroup(g)
	best := math.Inf(-1)
	var ties []geom.Point
	for fi := range d.fo.div.Faces {
		s := d.fo.emission(fi, detection, reported)
		switch {
		case s > best:
			best = s
			ties = ties[:0]
			ties = append(ties, d.fo.div.Faces[fi].Centroid)
		case s == best:
			ties = append(ties, d.fo.div.Faces[fi].Centroid)
		}
	}
	if len(ties) == 0 {
		return d.fo.div.Field.Center()
	}
	return geom.Centroid(ties)
}

// PMConfig parameterises the path-matching tracker.
type PMConfig struct {
	// MaxVelocity is the assumed maximum target speed in m/s — the extra
	// imposed condition [22] needs (Table 1 targets move at 1-5 m/s).
	MaxVelocity float64
	// Period is the time between consecutive localizations in seconds.
	Period float64
	// Beam bounds how many candidate faces survive each step; 0 selects
	// a default of 24.
	Beam int
}

// PM is the path-matching MLE tracker [22]: a Viterbi filter over face
// centroids whose transitions are limited by the assumed maximum
// velocity.
type PM struct {
	fo    *faceOrders
	cfg   PMConfig
	slack float64 // transition slack absorbing centroid quantisation
	// scores holds the surviving path scores from the previous step.
	scores map[int]float64
}

// NewPM builds a PM tracker over the certain bisector division.
func NewPM(fieldRect geom.Rect, nodes []geom.Point, cellSize float64, cfg PMConfig) (*PM, error) {
	rc, err := field.NewRatioClassifier(nodes, 1)
	if err != nil {
		return nil, err
	}
	div, err := field.Divide(fieldRect, rc, cellSize)
	if err != nil {
		return nil, err
	}
	return NewPMWithDivision(div, nodes, cfg)
}

// NewPMWithDivision builds the tracker over an existing certain (C = 1)
// division, so it can be shared with a DirectMLE instance.
func NewPMWithDivision(div *field.Division, nodes []geom.Point, cfg PMConfig) (*PM, error) {
	if cfg.MaxVelocity <= 0 {
		return nil, fmt.Errorf("baseline: PM needs a positive MaxVelocity, got %v", cfg.MaxVelocity)
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("baseline: PM needs a positive Period, got %v", cfg.Period)
	}
	if cfg.Beam == 0 {
		cfg.Beam = 24
	}
	return &PM{
		fo:  newFaceOrders(div, nodes),
		cfg: cfg,
		// Two mean face diameters of slack: centroid-to-centroid hops can
		// exceed the true displacement by up to a face size on each end.
		slack:  2 * math.Sqrt(div.MeanFaceArea()),
		scores: make(map[int]float64),
	}, nil
}

// Reset clears the accumulated path state.
func (p *PM) Reset() { p.scores = make(map[int]float64) }

// LocalizeGroup advances the path filter with one grouping sampling and
// returns the current estimate — the centroid of the face ending the best
// velocity-feasible path.
func (p *PM) LocalizeGroup(g *sampling.Group) geom.Point {
	detection, reported := detectionFromGroup(g)
	div := p.fo.div

	// Score all faces for this step's emission, keep the top Beam.
	type cand struct {
		id       int
		emission float64
	}
	cands := make([]cand, 0, len(div.Faces))
	for fi := range div.Faces {
		cands = append(cands, cand{id: fi, emission: p.fo.emission(fi, detection, reported)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].emission != cands[b].emission {
			return cands[a].emission > cands[b].emission
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > p.cfg.Beam {
		cands = cands[:p.cfg.Beam]
	}

	reach := p.cfg.MaxVelocity*p.cfg.Period + p.slack
	next := make(map[int]float64, len(cands))
	bestID, bestScore := -1, math.Inf(-1)
	for _, c := range cands {
		// Best feasible predecessor; a path break restarts the path with
		// a penalty so continuous paths are preferred.
		prevBest := math.Inf(-1)
		for pid, score := range p.scores {
			if div.Faces[pid].Centroid.Dist(div.Faces[c.id].Centroid) <= reach {
				if score > prevBest {
					prevBest = score
				}
			}
		}
		var total float64
		if math.IsInf(prevBest, -1) {
			const restartPenalty = 1
			total = c.emission - restartPenalty
		} else {
			total = prevBest + c.emission
		}
		next[c.id] = total
		if total > bestScore {
			bestScore = total
			bestID = c.id
		}
	}
	p.scores = next
	if bestID < 0 {
		return div.Field.Center()
	}
	return div.Faces[bestID].Centroid
}
