package match

import (
	"container/heap"
	"math"

	"fttt/internal/field"
	"fttt/internal/vector"
)

// refHeuristic is the test-side reference for the engine's search lanes:
// the original serial Algorithm 2 matcher — a best-first search over
// Face.Signature with float64 distances, an optional incremental per-link
// patch, an optional trust weight vector, and an Exhaustive rescan below
// FallbackBelow — written out plainly with no SoA store, no popcount
// kernel, no shared scratch and container/heap for the frontier. The
// engine must reproduce it bit for bit on every lane.
type refHeuristic struct {
	Div           *field.Division
	Incremental   bool
	FallbackBelow float64
}

func refDist2(v, sig vector.Vector, w []float64) float64 {
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

func refTerm(a, b vector.Value, w []float64, k int) float64 {
	if a.IsStar() || b.IsStar() {
		return 0
	}
	d := float64(a - b)
	if w == nil {
		return d * d
	}
	return w[k] * (d * d)
}

// Match runs the reference search for one lane (w nil: unweighted).
func (m *refHeuristic) Match(v vector.Vector, prev *field.Face, w []float64) Result {
	start := prev
	if start == nil {
		start = m.Div.FaceAt(m.Div.Field.Center())
	}
	seen := make([]bool, len(m.Div.Faces))
	seen[start.ID] = true
	h := &refHeap{{d2: refDist2(v, start.Signature, w), id: start.ID}}
	best := (*h)[0]
	visited, rounds, stall := 1, 0, 0
	for h.Len() > 0 && stall < 24 {
		e := heap.Pop(h).(faceEntry)
		rounds++
		if e.d2 < best.d2 {
			best = e
			stall = 0
		} else {
			stall++
		}
		if best.d2 == 0 {
			break
		}
		face := &m.Div.Faces[e.id]
		for ni, nb := range face.Neighbors {
			if seen[nb] {
				continue
			}
			seen[nb] = true
			visited++
			var d2 float64
			if m.Incremental && face.NeighborDiffs != nil {
				d2 = e.d2
				nbSig := m.Div.Faces[nb].Signature
				for _, k := range face.NeighborDiffs[ni] {
					d2 += refTerm(v[k], nbSig[k], w, k) - refTerm(v[k], face.Signature[k], w, k)
				}
				if d2 < 0 {
					d2 = 0
				}
			} else {
				d2 = refDist2(v, m.Div.Faces[nb].Signature, w)
			}
			heap.Push(h, faceEntry{d2: d2, id: nb})
		}
	}
	sim := math.Inf(1)
	if best.d2 > 0 {
		sim = 1 / math.Sqrt(best.d2)
	}
	if m.FallbackBelow > 0 && sim < m.FallbackBelow {
		r := (&Exhaustive{Div: m.Div}).MatchWeighted(v, nil, w)
		r.Visited += visited
		r.Rounds = rounds
		r.FellBack = true
		return r
	}
	f := &m.Div.Faces[best.id]
	return Result{Face: f, Similarity: sim, Estimate: f.Centroid, Tied: 1, Visited: visited, Rounds: rounds}
}

// refHeap is the frontier as a container/heap min-heap on d2.
type refHeap []faceEntry

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].d2 < h[j].d2 }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(faceEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// MatchWeighted is the full-scan reference for trust-weighted lanes:
// Exhaustive.Match with a per-pair weight vector (a nil w delegates to
// the unweighted Match).
func (m *Exhaustive) MatchWeighted(v vector.Vector, prev *field.Face, w []float64) Result {
	if w == nil {
		return m.Match(v, prev)
	}
	best := math.Inf(-1)
	var winner *field.Face
	var ties []*field.Face
	for i := range m.Div.Faces {
		f := &m.Div.Faces[i]
		s := simOf(dist2(v, f.Signature, w))
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
