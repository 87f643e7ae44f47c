package match

import (
	"math"
	"math/bits"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// patience is how many consecutive non-improving expansions the search
// tolerates before it stops.
const patience = 24

// Heuristic is the matching engine. Instead of the paper's strictly-
// improving hill climb — which stalls on the similarity plateaus that
// flipped components create — its search is a bounded best-first
// search: faces are expanded in increasing-distance order from the warm
// start, and the search stops once 24 consecutive expansions fail to
// improve on the best face seen. This keeps the local, O(n²)-per-
// localization character of Algorithm 2 while tolerating plateaus.
//
// Every entry point scores a lane — one sampling vector, its warm start
// and an optional trust weight vector — on one of two distances, both
// equal to the serial float64 sum of Def. 8 bit for bit:
//
//   - The popcount kernel, for unweighted lanes whose components are all
//     ternary or Star, when the division has a bitplane store (SoA).
//     Each component difference is then 0, 1 or 4, so
//     d² = 4·|sign flips| + 1·|one-sided zeros|, counted 64 pairs at a
//     time; every partial sum of the float loop is a small integer, which
//     float64 represents exactly in any order.
//   - The float kernel over Face.Signature (dist2) for every other lane:
//     fractional (Def. 10) queries, trust-weighted queries, and divisions
//     without a store.
//
// A Heuristic owns reusable search scratch (a visited-epoch slice, the
// frontier heap, the query bitplanes, the scan's tie and top-M lists),
// so a warmed Match or MatchBatch performs no heap allocations in search
// mode. That makes a Heuristic single-goroutine: give each goroutine its
// own matcher (the Division it points at may be shared — matchers only
// read it).
type Heuristic struct {
	Div *field.Division
	// Incremental updates a neighbor's float-lane distance from its
	// parent's using the per-link signature diffs (Face.NeighborDiffs):
	// O(|diff|) per hop instead of O(C(n,2)) — Theorem 1 says |diff| is
	// usually 1. Results are identical up to floating-point association
	// order. Popcount lanes always recompute: the patch is exact integer
	// arithmetic there, so both give the same bits.
	Incremental bool
	// FallbackBelow, when positive, reruns a full scan whenever the
	// search converges on a face whose similarity is below it. The
	// paper's algorithm has no such escape; it exists for the ablation
	// study of DESIGN.md §5.
	FallbackBelow float64
	// Exhaustive replaces the search with a full scan of every face,
	// averaging the centroids of faces tied at the maximum similarity.
	Exhaustive bool
	// TopM, when positive, selects the scan and estimates the target as
	// the similarity-weighted mean of the M best faces' centroids instead
	// of the single argmax (exact matches, when present, are averaged
	// alone). Face-matching errors are discrete jumps between candidate
	// faces; averaging over the top candidates trades a little bias for
	// much less jump variance — the estimator ablation of DESIGN.md §5.
	TopM int

	// div is the Div the scratch below was sized for; soa caches its
	// store. Reassigning Div resizes the scratch on the next call.
	div *field.Division
	soa *field.SigSoA
	// seen[id] == epoch marks face id as visited in the current search;
	// bumping epoch invalidates the whole slice in O(1).
	seen     []uint32
	epoch    uint32
	frontier faceHeap
	// pop selects the popcount kernel for the current lane; qPos, qNeg
	// and qZero are its query bitplanes (+1, −1 and 0 components).
	pop               bool
	qPos, qNeg, qZero []uint64
	ties              []*field.Face
	top               []topEntry
}

// faceHeap is a min-heap of (squared distance, faceID) entries ordered by
// d2. Push/pop are open-coded (no container/heap) to avoid the interface
// boxing allocation on every operation; the sift rules replicate
// container/heap exactly (strict-less comparisons), so expansion order —
// and therefore plateau tie-breaking — is unchanged.
type faceHeap []faceEntry

type faceEntry struct {
	d2 float64
	id int
}

// push appends e and sifts it up.
func (h faceHeap) push(e faceEntry) faceHeap {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].d2 <= h[i].d2 {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	return h
}

// pop removes and returns the minimum entry.
func (h faceHeap) pop() (faceHeap, faceEntry) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		smallest := i
		if l := 2*i + 1; l < len(h) && h[l].d2 < h[smallest].d2 {
			smallest = l
		}
		if r := 2*i + 2; r < len(h) && h[r].d2 < h[smallest].d2 {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	return h, top
}

// topEntry is one candidate of the top-M list.
type topEntry struct {
	sim float64
	id  int
}

// Match finds the face best matching v. prev is the face returned by
// the previous localization, the search's warm start; with a nil prev
// the search starts from the division's middle face (Algorithm 2's
// Initialization()).
func (m *Heuristic) Match(v vector.Vector, prev *field.Face) Result {
	return m.MatchWeighted(v, prev, nil)
}

// MatchBatch scores vs[i] warm-started from prevs[i] with trust weights
// ws[i] and appends one Result per lane to dst, which is returned. prevs
// and ws may be nil (all cold starts, all unweighted), as may any lane's
// entry. Lanes are independent: result i depends only on (vs[i],
// prevs[i], ws[i]), so a serial Match is the one-lane case and any
// regrouping of the same lanes across calls produces identical bytes.
func (m *Heuristic) MatchBatch(dst []Result, vs []vector.Vector, prevs []*field.Face, ws [][]float64) []Result {
	for i, v := range vs {
		var prev *field.Face
		if prevs != nil {
			prev = prevs[i]
		}
		var w []float64
		if ws != nil {
			w = ws[i]
		}
		dst = append(dst, m.MatchWeighted(v, prev, w))
	}
	return dst
}

// MatchWeighted is Match with a per-pair trust weight vector: every
// distance evaluation — full and incremental — is weighted by w, so
// pairs involving distrusted nodes count less toward the face decision.
// A nil w is the unweighted match.
func (m *Heuristic) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	m.prepare(v, w)
	if m.Exhaustive || m.TopM > 0 {
		return m.scan(v, w)
	}
	start := prev
	if start == nil {
		start = m.Div.FaceAt(m.Div.Field.Center())
	}
	best, visited, rounds := m.search(v, w, start)
	sim := simOf(best.d2)
	if m.FallbackBelow > 0 && sim < m.FallbackBelow {
		r := m.scan(v, w)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	// The search returns a single face; ties among distant faces are not
	// visible to the local search, matching Algorithm 2.
	return finish(&m.Div.Faces[best.id], nil, sim, visited, rounds)
}

// prepare sizes the scratch for Div and selects the lane's kernel,
// filling the query bitplanes when the popcount kernel applies.
func (m *Heuristic) prepare(v vector.Vector, w []float64) {
	if m.div != m.Div {
		m.div, m.soa = m.Div, m.Div.SoA()
		m.seen, m.epoch = make([]uint32, len(m.Div.Faces)), 0
		if m.soa != nil { // without a store every lane takes the float kernel
			words := m.soa.Words
			q := make([]uint64, 3*words)
			m.qPos, m.qNeg, m.qZero = q[:words], q[words:2*words], q[2*words:]
		}
	}
	m.pop = w == nil && m.soa != nil
	if !m.pop {
		return
	}
	clear(m.qPos)
	clear(m.qNeg)
	clear(m.qZero)
	for k, x := range v {
		bit := uint64(1) << (k % 64)
		switch {
		case x.IsStar():
		case x == vector.Nearer:
			m.qPos[k/64] |= bit
		case x == vector.Farther:
			m.qNeg[k/64] |= bit
		case x == vector.Flipped:
			m.qZero[k/64] |= bit
		default: // fractional component: the float kernel
			m.pop = false
			return
		}
	}
}

// d2 is the lane's squared modified distance to face f.
func (m *Heuristic) d2(v vector.Vector, w []float64, f int) float64 {
	if !m.pop {
		return dist2(v, m.Div.Faces[f].Signature, w)
	}
	words := m.soa.Words
	pos := m.soa.PosBits[f*words : (f+1)*words]
	neg := m.soa.NegBits[f*words : (f+1)*words]
	qp, qn, qz := m.qPos[:words], m.qNeg[:words], m.qZero[:words]
	var c4, c1 int
	for i := range pos {
		sp, sn := pos[i], neg[i]
		s := sp | sn
		c4 += bits.OnesCount64(qp[i]&sn | qn[i]&sp)
		c1 += bits.OnesCount64(qz[i]&s | (qp[i]|qn[i])&^s)
	}
	return float64(4*c4 + c1)
}

// search is the bounded best-first search from start. It returns the
// best frontier entry, how many faces it evaluated and how many it
// expanded.
func (m *Heuristic) search(v vector.Vector, w []float64, start *field.Face) (best faceEntry, visited, rounds int) {
	faces, seen := m.Div.Faces, m.seen
	m.epoch++
	if m.epoch == 0 { // epoch wrapped: clear the stale marks once
		clear(seen)
		m.epoch = 1
	}
	epoch := m.epoch
	seen[start.ID] = epoch
	patch := m.Incremental && !m.pop

	h := m.frontier[:0].push(faceEntry{d2: m.d2(v, w, start.ID), id: start.ID})
	best, visited = h[0], 1
	for stall := 0; len(h) > 0 && stall < patience; {
		var e faceEntry
		h, e = h.pop()
		rounds++
		if e.d2 < best.d2 {
			best, stall = e, 0
		} else {
			stall++
		}
		if best.d2 == 0 {
			break // exact match cannot be beaten
		}
		face := &faces[e.id]
		for ni, nb := range face.Neighbors {
			if seen[nb] == epoch {
				continue
			}
			seen[nb] = epoch
			visited++
			var d2 float64
			if patch && face.NeighborDiffs != nil {
				// Patch only the components that differ across the link.
				d2 = e.d2
				nbSig := faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					d2 += term(v[k], nbSig[k], w, k) - term(v[k], face.Signature[k], w, k)
				}
				if d2 < 0 { // guard against rounding just below zero
					d2 = 0
				}
			} else {
				d2 = m.d2(v, w, nb)
			}
			h = h.push(faceEntry{d2: d2, id: nb})
		}
	}
	m.frontier = h[:0] // retain the grown backing array for the next lane
	return best, visited, rounds
}

// scan scores every face. It reports the argmax, averaging the
// centroids of faces tied at the maximum similarity, or with TopM > 0
// the similarity-weighted mean of the TopM best faces' centroids.
func (m *Heuristic) scan(v vector.Vector, w []float64) Result {
	faces := m.Div.Faces
	best := math.Inf(-1)
	winner := 0
	ties, top := m.ties[:0], m.top[:0]
	for i := range faces {
		s := simOf(m.d2(v, w, i))
		switch {
		case s > best:
			best, winner, ties = s, i, ties[:0]
		case s == best:
			ties = append(ties, &faces[i])
		}
		// Insert into the top-M list, kept in decreasing similarity with
		// earlier faces first among equals.
		if mm := m.TopM; mm > 0 && (len(top) < mm || s > top[mm-1].sim) {
			if len(top) < mm {
				top = append(top, topEntry{})
			}
			a := len(top) - 1
			for ; a > 0 && s > top[a-1].sim; a-- {
				top[a] = top[a-1]
			}
			top[a] = topEntry{s, i}
		}
	}
	m.ties, m.top = ties[:0], top[:0] // retain the backing arrays
	if m.TopM <= 0 {
		return finish(&faces[winner], ties, best, len(faces), 0)
	}
	// top[0] is the winner. Exact matches (+Inf similarity) dominate:
	// average only those, at most M of them; Tied still reports the
	// full tie count.
	var r Result
	if math.IsInf(best, 1) {
		r = finish(&faces[winner], ties[:min(len(ties), m.TopM-1)], best, len(faces), 0)
	} else {
		r = finish(&faces[winner], nil, best, len(faces), 0)
		var sx, sy, sw float64
		for _, c := range top {
			sx += c.sim * faces[c.id].Centroid.X
			sy += c.sim * faces[c.id].Centroid.Y
			sw += c.sim
		}
		if sw > 0 {
			r.Estimate.X, r.Estimate.Y = sx/sw, sy/sw
		}
	}
	r.Tied = 1 + len(ties)
	return r
}
