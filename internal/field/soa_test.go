package field

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/vector"
)

// TestSoASignatureEquality is the SoA-vs-AoS property over seeded
// random deployments: every plane bit agrees with the AoS
// Face.Signature component by component.
func TestSoASignatureEquality(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			div, _ := randomDivision(t, seed, 6, 1.2, 2)
			checkPlanes(t, div)
		})
	}
}

// checkPlanes asserts div carries a store whose dimensions match the
// division and whose PosBits/NegBits bit k of face f is set exactly when
// Face.Signature component k is Nearer/Farther.
func checkPlanes(t *testing.T, div *Division) {
	t.Helper()
	s := div.SoA()
	if s == nil {
		t.Fatal("ternary division has no SoA store")
	}
	if s.NumFaces != div.NumFaces() || s.Dim != div.Faces[0].Signature.Dim() || s.Words != (s.Dim+63)/64 {
		t.Fatalf("SoA dims %dx%d (%d words), division %dx%d",
			s.NumFaces, s.Dim, s.Words, div.NumFaces(), div.Faces[0].Signature.Dim())
	}
	for f := range div.Faces {
		aos := div.Faces[f].Signature
		pos, neg := s.FacePlanes(f)
		for k := 0; k < s.Words*64; k++ {
			wantPos := k < s.Dim && aos[k] == vector.Nearer
			wantNeg := k < s.Dim && aos[k] == vector.Farther
			if gotPos := pos[k/64]&(1<<(k%64)) != 0; gotPos != wantPos {
				t.Fatalf("face %d comp %d: PosBits %v, want %v", f, k, gotPos, wantPos)
			}
			if gotNeg := neg[k/64]&(1<<(k%64)) != 0; gotNeg != wantNeg {
				t.Fatalf("face %d comp %d: NegBits %v, want %v", f, k, gotNeg, wantNeg)
			}
		}
	}
}

// TestSoAPopcountDistance checks the bitplane distance kernel against
// the float Def. 8 distance for ternary/star queries: the float sum of
// integer-valued terms is exactly the popcount integer.
func TestSoAPopcountDistance(t *testing.T) {
	div, _ := randomDivision(t, 3, 6, 1.2, 2)
	s := div.SoA()
	dim := s.Dim
	// A few query shapes: all values of one kind, then mixtures keyed off
	// the component index.
	queries := make([]vector.Vector, 0, 8)
	for _, fill := range []vector.Value{vector.Nearer, vector.Farther, vector.Flipped, vector.Star} {
		q := make(vector.Vector, dim)
		for k := range q {
			q[k] = fill
		}
		queries = append(queries, q)
	}
	for variant := 0; variant < 4; variant++ {
		q := make(vector.Vector, dim)
		for k := range q {
			switch (k + variant) % 4 {
			case 0:
				q[k] = vector.Nearer
			case 1:
				q[k] = vector.Farther
			case 2:
				q[k] = vector.Flipped
			default:
				q[k] = vector.Star
			}
		}
		queries = append(queries, q)
	}
	qPos := make([]uint64, s.Words)
	qNeg := make([]uint64, s.Words)
	qMask := make([]uint64, s.Words)
	for _, q := range queries {
		for w := range qPos {
			qPos[w], qNeg[w], qMask[w] = 0, 0, 0
		}
		for k, x := range q {
			if x.IsStar() {
				continue
			}
			qMask[k/64] |= 1 << (k % 64)
			switch x {
			case vector.Nearer:
				qPos[k/64] |= 1 << (k % 64)
			case vector.Farther:
				qNeg[k/64] |= 1 << (k % 64)
			}
		}
		for f := range div.Faces {
			// The serial matcher's squared distance: a float sum of the
			// per-component squared diffs in ascending pair order. All
			// terms are small integers, so the float sum is exact and
			// must equal the popcount integer bit for bit.
			sig := div.Faces[f].Signature
			var want float64
			for k := range q {
				if q[k].IsStar() || sig[k].IsStar() {
					continue
				}
				d := float64(q[k] - sig[k])
				want += d * d
			}
			got := s.popcountDiff(qPos, qNeg, qMask, f)
			if float64(got) != want {
				t.Fatalf("face %d query %v: popcount d2 %d, float d2 %v", f, q, got, want)
			}
		}
	}
}

// TestSoASurvivesSaveLoad pins that a loaded division rebuilds a store
// identical to the one built at divide time — the fieldcache disk-spill
// path must batch-match exactly like the original.
func TestSoASurvivesSaveLoad(t *testing.T) {
	rc := gridClassifier(t, 9, defaultC())
	orig, err := Divide(fieldRect, rc, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := orig.SoA(), loaded.SoA()
	if a == nil || b == nil {
		t.Fatalf("SoA store missing: orig=%v loaded=%v", a != nil, b != nil)
	}
	if a.NumFaces != b.NumFaces || a.Dim != b.Dim || a.Words != b.Words || len(a.PosBits) != len(b.PosBits) {
		t.Fatalf("header mismatch: %d×%d (%d words) vs %d×%d (%d words)",
			a.NumFaces, a.Dim, a.Words, b.NumFaces, b.Dim, b.Words)
	}
	for i := range a.PosBits {
		if a.PosBits[i] != b.PosBits[i] || a.NegBits[i] != b.NegBits[i] {
			t.Fatalf("bitplane word %d differs after Save/Load", i)
		}
	}
}

// TestSoANilOnUnquantizable pins the fallback contract: a classifier
// emitting fractional values leaves SoA nil — such signatures have no
// bitplane form.
func TestSoANilOnUnquantizable(t *testing.T) {
	div, err := Divide(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), irrationalClassifier{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if div.SoA() != nil {
		t.Fatal("fractional signatures produced an SoA store")
	}
}

// irrationalClassifier emits a fractional value.
type irrationalClassifier struct{}

func (irrationalClassifier) NumNodes() int { return 2 }
func (irrationalClassifier) Classify(p geom.Point, i, j int) vector.Value {
	return vector.Value(0.123456789)
}

// TestSoAStarSignatureHasNoPlanes pins the bitplane guard: the
// two-plane ternary form cannot encode a Star component's always-zero
// Def. 8 contribution (it would alias a stored 0), so a division whose
// signatures contain Star gets no store at all.
func TestSoAStarSignatureHasNoPlanes(t *testing.T) {
	div, err := Divide(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), starClassifier{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s := div.SoA(); s != nil {
		t.Fatalf("star-bearing signatures built a %d×%d bitplane store; stored Star would alias 0", s.NumFaces, s.Dim)
	}
}

// starClassifier emits one Star pair amid ternary values.
type starClassifier struct{}

func (starClassifier) NumNodes() int { return 3 }
func (starClassifier) Classify(p geom.Point, i, j int) vector.Value {
	if i == 0 && j == 1 {
		return vector.Star
	}
	if p.X < 5 {
		return vector.Nearer
	}
	return vector.Farther
}

// FacePlanes returns face f's bitplane block (positives, negatives).
func (s *SigSoA) FacePlanes(f int) (pos, neg []uint64) {
	return s.PosBits[f*s.Words : (f+1)*s.Words], s.NegBits[f*s.Words : (f+1)*s.Words]
}

// popcountDiff is the self-check reference: the bitplane squared
// distance of a ternary query against face f, computed the popcount
// way (4·|sign flips| + 1·|one-sided zeros|).
func (s *SigSoA) popcountDiff(qPos, qNeg, qMask []uint64, f int) int {
	base := f * s.Words
	c4, c1 := 0, 0
	for w := 0; w < s.Words; w++ {
		sp, sn := s.PosBits[base+w], s.NegBits[base+w]
		qp, qn, qm := qPos[w], qNeg[w], qMask[w]
		c4 += bits.OnesCount64((qp & sn) | (qn & sp))
		qz := qm &^ (qp | qn)
		c1 += bits.OnesCount64((qz & (sp | sn)) | ((qp | qn) &^ (sp | sn)))
	}
	return 4*c4 + c1
}
