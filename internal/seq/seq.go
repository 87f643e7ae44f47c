// Package seq provides detection (rank) sequences and rank-correlation
// measures for the sequence-matching baseline trackers: Sequence-Based
// Localization [24] ("Direct MLE" in the paper's evaluation) and the
// path-matching MLE of [22].
//
// A detection sequence orders sensor IDs by descending RSS; a location's
// reference sequence orders the same IDs by ascending distance. Two
// sequences over the same ID set are compared by Spearman's rank
// correlation, the measure [24] uses for its maximum-likelihood match.
package seq

import (
	"fmt"
	"sort"
)

// Ranks converts an ordered ID sequence into a rank map: rank[id] is the
// position of id in the sequence (0 = first).
func Ranks(sequence []int) map[int]int {
	r := make(map[int]int, len(sequence))
	for pos, id := range sequence {
		r[id] = pos
	}
	return r
}

// ByDescending returns the IDs sorted by descending score; ties break by
// ascending ID for determinism.
func ByDescending(ids []int, score func(id int) float64) []int {
	out := append([]int(nil), ids...)
	sort.Slice(out, func(a, b int) bool {
		sa, sb := score(out[a]), score(out[b])
		if sa != sb {
			return sa > sb
		}
		return out[a] < out[b]
	})
	return out
}

// ByAscending returns the IDs sorted by ascending score; ties break by
// ascending ID.
func ByAscending(ids []int, score func(id int) float64) []int {
	out := append([]int(nil), ids...)
	sort.Slice(out, func(a, b int) bool {
		sa, sb := score(out[a]), score(out[b])
		if sa != sb {
			return sa < sb
		}
		return out[a] < out[b]
	})
	return out
}

// Spearman returns Spearman's rank correlation coefficient between two
// orderings of the same ID set, in [-1, 1]: 1 for identical order, -1 for
// exactly reversed. It returns an error if the sequences are not
// permutations of each other, and 0 correlation for fewer than 2 IDs.
func Spearman(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("seq: length mismatch %d vs %d", len(a), len(b))
	}
	n := len(a)
	if n < 2 {
		return 0, nil
	}
	ra, rb := Ranks(a), Ranks(b)
	if len(ra) != n || len(rb) != n {
		return 0, fmt.Errorf("seq: sequences contain duplicate IDs")
	}
	var d2 float64
	for id, pa := range ra {
		pb, ok := rb[id]
		if !ok {
			return 0, fmt.Errorf("seq: ID %d missing from second sequence", id)
		}
		d := float64(pa - pb)
		d2 += d * d
	}
	nf := float64(n)
	return 1 - 6*d2/(nf*(nf*nf-1)), nil
}
