package field

import (
	"math/bits"

	"fttt/internal/vector"
)

// SigSoA is the division's structure-of-arrays signature store: every
// face signature quantized to int8 (vector.Quantize, lossless by
// construction) and laid out contiguously, so the matcher's popcount
// kernel (internal/match) streams packed words instead of chasing
// per-face float64 slices.
//
// Two views share the one quantized truth:
//
//   - Rows is row-major: Rows[f*Dim+k] is component k of face f's
//     signature. Scanning one face's whole signature is a unit-stride
//     walk.
//   - PosBits/NegBits are two bitplanes over Rows for ternary
//     signatures: bit k of face f's Words-word block is set in PosBits
//     iff the component is +1, in NegBits iff it is −1 (0 sets
//     neither). With 64 components per word, a whole squared modified
//     distance (Def. 8) against a ternary query reduces to a handful of
//     AND/OR/popcount ops per 64 pairs.
//
// A SigSoA is immutable after construction and shared like the Division
// that owns it.
type SigSoA struct {
	// NumFaces and Dim are the store's dimensions (faces × node pairs).
	NumFaces int
	Dim      int
	// Denom is the quantization denominator every code decodes against
	// (vector.Dequantize). Ternary divisions — every division the
	// RatioClassifier builds — have Denom 1.
	Denom int
	// Rows is the row-major (face-major) view: Rows[f*Dim+k].
	Rows []int8
	// Words is the per-face bitplane word count: ⌈Dim/64⌉.
	Words int
	// PosBits and NegBits are the per-face bitplanes: bit k%64 of word
	// f*Words + k/64 reflects component k of face f. Nil when Denom != 1
	// or any stored component is Star (such signatures have no two-plane
	// form; the matcher's float kernel reads Rows instead).
	PosBits []uint64
	NegBits []uint64
}

// buildSigSoA quantizes the face signatures into a fresh SigSoA. It
// returns nil when the signatures do not quantize losslessly into int8
// (possible only with a custom PairClassifier emitting exotic values) —
// callers fall back to the AoS Face.Signature path then.
func buildSigSoA(faces []Face) *SigSoA {
	if len(faces) == 0 {
		return nil
	}
	dim := faces[0].Signature.Dim()
	sigs := make([]vector.Vector, len(faces))
	for i := range faces {
		if faces[i].Signature.Dim() != dim {
			return nil
		}
		sigs[i] = faces[i].Signature
	}
	denom := vector.CommonDenominator(sigs...)
	if denom == 0 {
		return nil
	}
	s := &SigSoA{
		NumFaces: len(faces),
		Dim:      dim,
		Denom:    denom,
		Rows:     make([]int8, len(faces)*dim),
		Words:    (dim + 63) / 64,
	}
	for f, sig := range sigs {
		// Append into the row's exact sub-slice: capacity dim means the
		// appends land in place in Rows without reallocating.
		if _, err := vector.QuantizeVector(s.Rows[f*dim:f*dim:(f+1)*dim], sig, denom); err != nil {
			return nil // CommonDenominator vouched for every value; defensive
		}
	}
	// Bitplanes require pure ternary content: a Star component (legal in
	// any signature a custom classifier emits) contributes 0 to Def. 8
	// regardless of the query, which the two-plane form cannot encode —
	// it would alias a stored 0. Such stores keep the codes but no planes.
	hasStar := false
	for _, c := range s.Rows {
		if c == vector.StarCode {
			hasStar = true
			break
		}
	}
	if denom == 1 && !hasStar {
		s.PosBits = make([]uint64, len(faces)*s.Words)
		s.NegBits = make([]uint64, len(faces)*s.Words)
		for f := 0; f < len(faces); f++ {
			base := f * s.Words
			for k := 0; k < dim; k++ {
				switch s.Rows[f*dim+k] {
				case 1:
					s.PosBits[base+k/64] |= 1 << (k % 64)
				case -1:
					s.NegBits[base+k/64] |= 1 << (k % 64)
				}
			}
		}
	}
	return s
}

// Signature decodes face f's stored signature into dst (appended) —
// the inverse view the differential tests compare against the AoS
// Face.Signature.
func (s *SigSoA) Signature(dst vector.Vector, f int) vector.Vector {
	return vector.DequantizeVector(dst, s.Rows[f*s.Dim:(f+1)*s.Dim], s.Denom)
}

// FacePlanes returns face f's bitplane block (positives, negatives), or
// (nil, nil) when the store has no bitplanes.
func (s *SigSoA) FacePlanes(f int) (pos, neg []uint64) {
	if s.PosBits == nil {
		return nil, nil
	}
	return s.PosBits[f*s.Words : (f+1)*s.Words], s.NegBits[f*s.Words : (f+1)*s.Words]
}

// ApproxBytes estimates the store's resident memory for the fieldcache
// bytes gauge.
func (s *SigSoA) ApproxBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.Rows)) +
		8*(int64(len(s.PosBits))+int64(len(s.NegBits)))
}

// popcountDiff is a self-check helper used by tests: the bitplane
// squared distance of a ternary query against face f, computed the
// popcount way (4·|sign flips| + 1·|one-sided zeros|).
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
