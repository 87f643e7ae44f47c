package field

import "fttt/internal/vector"

// SigSoA is the division's structure-of-arrays signature store: every
// face signature as two bitplanes laid out contiguously, so the
// matcher's popcount kernel (internal/match) streams packed words
// instead of chasing per-face float64 slices. Bit k of face f's
// Words-word block is set in PosBits iff component k is Nearer (+1), in
// NegBits iff it is Farther (−1); Flipped (0) sets neither. With 64
// components per word, a whole squared modified distance (Def. 8)
// against a ternary query reduces to a handful of AND/OR/popcount ops
// per 64 pairs.
//
// Only purely ternary signatures have this form: a Star component
// contributes 0 to Def. 8 whatever the query, which the two planes
// would alias to a stored 0, and fractional values have no plane at
// all. Divisions holding either get no store, and the matcher's float
// kernel reads Face.Signature instead. Every division the
// RatioClassifier builds is purely ternary.
//
// A SigSoA is immutable after construction and shared like the Division
// that owns it.
type SigSoA struct {
	// NumFaces and Dim are the store's dimensions (faces × node pairs).
	NumFaces int
	Dim      int
	// Words is the per-face bitplane word count: ⌈Dim/64⌉.
	Words int
	// PosBits and NegBits are the per-face bitplanes: bit k%64 of word
	// f*Words + k/64 reflects component k of face f.
	PosBits []uint64
	NegBits []uint64
}

// buildSigSoA packs the face signatures into a fresh SigSoA. It returns
// nil unless every component of every signature is exactly Nearer,
// Flipped or Farther (possible only with a custom PairClassifier
// emitting Star or fractional values) — callers fall back to the AoS
// Face.Signature path then.
func buildSigSoA(faces []Face) *SigSoA {
	if len(faces) == 0 {
		return nil
	}
	dim := faces[0].Signature.Dim()
	words := (dim + 63) / 64
	s := &SigSoA{
		NumFaces: len(faces),
		Dim:      dim,
		Words:    words,
		PosBits:  make([]uint64, len(faces)*words),
		NegBits:  make([]uint64, len(faces)*words),
	}
	for f := range faces {
		sig := faces[f].Signature
		if sig.Dim() != dim {
			return nil
		}
		base := f * words
		for k, x := range sig {
			switch x {
			case vector.Nearer:
				s.PosBits[base+k/64] |= 1 << (k % 64)
			case vector.Farther:
				s.NegBits[base+k/64] |= 1 << (k % 64)
			case vector.Flipped:
			default: // Star or a fractional value
				return nil
			}
		}
	}
	return s
}

// ApproxBytes estimates the store's resident memory for the fieldcache
// bytes gauge.
func (s *SigSoA) ApproxBytes() int64 {
	if s == nil {
		return 0
	}
	return 8 * (int64(len(s.PosBits)) + int64(len(s.NegBits)))
}
