package byz

import (
	"math"
	"testing"
)

// decodeVotes maps fuzz bytes onto legal witness votes: two bytes per
// vote, the first picking the sign (+1 / −1 / abstain-by-zero-weight)
// and the second a positive weight on a coarse grid. Fuzzing the legal
// domain keeps every failure a genuine contract violation.
func decodeVotes(data []byte) []vote {
	votes := make([]vote, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		sign := 1
		switch data[i] % 3 {
		case 1:
			sign = -1
		case 2:
			sign = 0
		}
		w := float64(data[i+1]%64) / 16 // 0, 1/16, ..., ~4
		votes = append(votes, vote{sign, w})
	}
	return votes
}

// FuzzByzQuorumVote pins quorum's contracts — the tally decision
// voteOnPair runs — on arbitrary legal vote sets: the outcome is deterministic and sign-antisymmetric, no quorum
// is ever reached below minQuorum total weight or below the threshold
// share, and — the k-malicious soundness bound of Delaët et al. in
// weight form — when the honest majority H votes unanimously and the
// adversarial weight M satisfies M < H·(1−θ)/θ for θ > 1/2, the
// tallied outcome equals the honest-only outcome.
func FuzzByzQuorumVote(f *testing.F) {
	f.Add([]byte{0, 16, 0, 16, 1, 16}, 1.0, 0.66)
	f.Add([]byte{1, 32, 1, 32, 0, 63}, 2.0, 0.75)
	f.Add([]byte{}, 3.0, 0.66)
	f.Fuzz(func(t *testing.T, data []byte, minQuorum, threshold float64) {
		if math.IsNaN(minQuorum) || minQuorum < 0 || minQuorum > 100 {
			minQuorum = 1
		}
		if math.IsNaN(threshold) || threshold <= 0.5 || threshold > 1 {
			threshold = 2.0 / 3
		}
		pos, neg := tally(decodeVotes(data))

		sign, ok := quorum(pos, neg, minQuorum, threshold)
		if sign2, ok2 := quorum(pos, neg, minQuorum, threshold); sign2 != sign || ok2 != ok {
			t.Fatalf("quorum not deterministic: (%d,%v) vs (%d,%v)", sign, ok, sign2, ok2)
		}
		if !ok && sign != 0 {
			t.Fatalf("no-quorum outcome carries sign %d", sign)
		}
		if ok && sign != 1 && sign != -1 {
			t.Fatalf("quorum outcome sign = %d, want ±1", sign)
		}

		// Check quorum and threshold against the summed weights.
		total := pos + neg
		if ok && total < minQuorum {
			t.Fatalf("quorum reached with total weight %v < minQuorum %v", total, minQuorum)
		}
		if ok {
			win := pos
			if sign < 0 {
				win = neg
			}
			if win < threshold*total {
				t.Fatalf("sign %d won with %v of %v, below threshold %v", sign, win, total, threshold)
			}
		}

		// Antisymmetry: flipping every vote flips the outcome sign.
		fsign, fok := quorum(neg, pos, minQuorum, threshold)
		if fok != ok || fsign != -sign {
			t.Fatalf("not antisymmetric: (%d,%v) vs flipped (%d,%v)", sign, ok, fsign, fok)
		}

		// Soundness: a unanimous honest majority H with adversarial
		// weight M < H·(1−θ)/θ must win the tally with the honest sign.
		// Treat the positive voters as the honest bloc and the negative
		// ones as the adversary (by antisymmetry this covers both sides).
		h, m := pos, neg
		// The tiny relative slack keeps rounding at the exact bound from
		// reading as a soundness violation.
		if h >= minQuorum && h > 0 && m < h*(1-threshold)/threshold-1e-9*(h+m) {
			if !ok || sign != 1 {
				t.Fatalf("soundness violated: H=%v M=%v θ=%v gave (%d,%v), want (+1,true)",
					h, m, threshold, sign, ok)
			}
		}
	})
}
