package field

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fttt/internal/geom"
	"fttt/internal/randx"
	"fttt/internal/vector"
)

// randomDivision builds a division over a seeded random deployment —
// the property tests sweep several seeds so the invariants are checked
// across qualitatively different arrangements, not one lucky layout.
func randomDivision(t *testing.T, seed uint64, n int, c, cell float64) (*Division, *RatioClassifier) {
	t.Helper()
	rng := randx.New(seed).Split("property")
	fieldRect := geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 50))
	nodes := make([]geom.Point, n)
	for i := range nodes {
		nodes[i] = geom.Pt(rng.Uniform(0, 50), rng.Uniform(0, 50))
	}
	cls, err := NewRatioClassifier(nodes, c)
	if err != nil {
		t.Fatal(err)
	}
	div, err := Divide(fieldRect, cls, cell)
	if err != nil {
		t.Fatal(err)
	}
	return div, cls
}

// diffComponents returns the indices at which two signatures differ.
func diffComponents(a, b vector.Vector) []int {
	var out []int
	for k := range a {
		if a[k] != b[k] {
			out = append(out, k)
		}
	}
	return out
}

// TestTheorem1Adjacency checks the neighbor-face structure the matcher
// hill-climbs on, across random deployments: links are symmetric,
// deduplicated and ascending; neighbor signatures differ in at least
// one component (Lemma 1 says equal signatures are one face); the
// recorded NeighborDiffs are exactly the differing components; and the
// single-component links — Theorem 1 says crossing one boundary flips
// one pair — dominate and satisfy the hammingNeighbors predicate when
// the flip passes through the uncertain value.
func TestTheorem1Adjacency(t *testing.T) {
	singles, unitSteps, total := 0, 0, 0
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			div, _ := randomDivision(t, seed, 6, 1.2, 2)
			for fi := range div.Faces {
				f := &div.Faces[fi]
				if len(f.NeighborDiffs) != len(f.Neighbors) {
					t.Fatalf("face %d: %d diffs for %d neighbors",
						f.ID, len(f.NeighborDiffs), len(f.Neighbors))
				}
				for ni, nb := range f.Neighbors {
					if nb == f.ID {
						t.Fatalf("face %d lists itself as a neighbor", f.ID)
					}
					if nb < 0 || nb >= div.NumFaces() {
						t.Fatalf("face %d neighbor %d out of range", f.ID, nb)
					}
					if ni > 0 && f.Neighbors[ni-1] >= nb {
						t.Fatalf("face %d neighbors not strictly ascending: %v", f.ID, f.Neighbors)
					}
					// Symmetry: the link must exist in both directions.
					back := false
					for _, rb := range div.Faces[nb].Neighbors {
						if rb == f.ID {
							back = true
							break
						}
					}
					if !back {
						t.Fatalf("link %d→%d not symmetric", f.ID, nb)
					}

					diffs := diffComponents(f.Signature, div.Faces[nb].Signature)
					if len(diffs) == 0 {
						t.Fatalf("neighbors %d and %d share a signature (violates Lemma 1)", f.ID, nb)
					}
					if got := f.NeighborDiffs[ni]; len(got) != len(diffs) {
						t.Fatalf("face %d link %d: NeighborDiffs has %d entries, signatures differ in %d",
							f.ID, nb, len(got), len(diffs))
					} else {
						for k := range got {
							if got[k] != diffs[k] {
								t.Fatalf("face %d link %d: NeighborDiffs %v != actual %v",
									f.ID, nb, got, diffs)
							}
						}
					}
					total++
					if len(diffs) == 1 {
						singles++
						if hammingNeighbors(f.Signature, div.Faces[nb].Signature) {
							unitSteps++
						}
					}
				}
			}
		})
	}
	// Theorem 1 is exact for the true arrangement; the grid
	// approximation can merge several boundary crossings into one cell
	// step, so single-component links dominate without being universal.
	// Measured on these seeds: ~44% single-diff at cell=2, rising
	// monotonically with refinement (~55% at 1, ~64% at 0.5) — the
	// trend, not a magic constant, is the theorem's observable footprint.
	if total == 0 {
		t.Fatal("no neighbor links found")
	}
	if frac := float64(singles) / float64(total); frac < 0.35 {
		t.Errorf("only %.0f%% of links differ in one component at cell=2 (measured ~44%%: Theorem 1 structure lost)",
			100*frac)
	}
	t.Logf("links=%d single-diff=%d (%.1f%%) unit-steps=%d",
		total, singles, 100*float64(singles)/float64(total), unitSteps)
}

// TestTheorem1Refinement checks that the single-component-link fraction
// rises monotonically as the grid refines toward the true arrangement —
// the sense in which the approximate division converges to Theorem 1.
func TestTheorem1Refinement(t *testing.T) {
	singleFrac := func(cell float64) float64 {
		singles, total := 0, 0
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			div, _ := randomDivision(t, seed, 6, 1.2, cell)
			for fi := range div.Faces {
				for _, d := range div.Faces[fi].NeighborDiffs {
					total++
					if len(d) == 1 {
						singles++
					}
				}
			}
		}
		return float64(singles) / float64(total)
	}
	cells := []float64{4, 2, 1, 0.5}
	fracs := make([]float64, len(cells))
	for i, c := range cells {
		fracs[i] = singleFrac(c)
		t.Logf("cell=%.1f single-diff=%.1f%%", c, 100*fracs[i])
		if i > 0 && fracs[i] <= fracs[i-1] {
			t.Errorf("refinement %v→%v did not increase single-diff links: %.3f → %.3f",
				cells[i-1], c, fracs[i-1], fracs[i])
		}
	}
	if fracs[len(fracs)-1] < 0.55 {
		t.Errorf("finest grid has only %.0f%% single-diff links (measured ~64%%)", 100*fracs[len(fracs)-1])
	}
}

// TestDivisionInvariants checks the structural contract of the grid
// division across random deployments: cells partition exactly into
// faces, signatures are unique per face and round-trip through the
// signature index, every cell's stored face agrees with a fresh
// classification of its centre, and centroids lie inside the (possibly
// one-cell overhanging) grid extent.
func TestDivisionInvariants(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			div, cls := randomDivision(t, seed, 5, 1.2, 2)

			cellSum := 0
			seen := make(map[string]int)
			for fi := range div.Faces {
				f := &div.Faces[fi]
				if f.ID != fi {
					t.Fatalf("face at index %d has ID %d", fi, f.ID)
				}
				if f.Cells <= 0 {
					t.Fatalf("face %d has %d cells", f.ID, f.Cells)
				}
				cellSum += f.Cells
				key := f.Signature.Key()
				if prev, dup := seen[key]; dup {
					t.Fatalf("faces %d and %d share signature %s", prev, f.ID, key)
				}
				seen[key] = f.ID
				if got := div.FaceBySignature(f.Signature); got == nil || got.ID != f.ID {
					t.Fatalf("FaceBySignature round-trip failed for face %d", f.ID)
				}
			}
			if cellSum != div.Cols*div.Rows {
				t.Fatalf("faces cover %d cells, grid has %d", cellSum, div.Cols*div.Rows)
			}

			// The grid may overhang the field max edge by under one cell.
			extent := geom.NewRect(div.Field.Min,
				geom.Pt(div.Field.Min.X+float64(div.Cols)*div.CellSize,
					div.Field.Min.Y+float64(div.Rows)*div.CellSize))
			for fi := range div.Faces {
				if c := div.Faces[fi].Centroid; !extent.Contains(c) {
					t.Fatalf("face %d centroid %v outside grid extent %v", fi, c, extent)
				}
			}

			for r := 0; r < div.Rows; r++ {
				for c := 0; c < div.Cols; c++ {
					center := div.CellCenter(c, r)
					f := div.FaceAt(center)
					if !slices.Equal(f.Signature, Signature(cls, center)) {
						t.Fatalf("cell (%d,%d): stored face signature differs from fresh classification", c, r)
					}
				}
			}
		})
	}
}

// hammingNeighbors reports whether a and b differ in exactly one component
// and by exactly magnitude 1 there — the neighbor-face relation of
// Theorem 1. Star components are skipped.
func hammingNeighbors(a, b vector.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	diffs := 0
	for k := range a {
		if a[k].IsStar() || b[k].IsStar() {
			continue
		}
		d := math.Abs(float64(a[k] - b[k]))
		if d == 0 {
			continue
		}
		if d != 1 {
			return false
		}
		diffs++
		if diffs > 1 {
			return false
		}
	}
	return diffs == 1
}

func TestHammingNeighbors(t *testing.T) {
	base := vector.FromInts(1, 0, -1, 0)
	oneStep := vector.FromInts(1, 1, -1, 0) // one component ±1
	twoStep := vector.FromInts(1, 1, 0, 0)  // two components changed
	bigStep := vector.FromInts(-1, 0, -1, 0)
	if !hammingNeighbors(base, oneStep) {
		t.Error("one ±1 change should be neighbors")
	}
	if hammingNeighbors(base, twoStep) {
		t.Error("two changes should not be neighbors")
	}
	if hammingNeighbors(base, bigStep) {
		t.Error("a ±2 change should not be neighbors")
	}
	if hammingNeighbors(base, base) {
		t.Error("identical vectors are not neighbors")
	}
	if hammingNeighbors(base, vector.FromInts(1, 0, -1)) {
		t.Error("dimension mismatch should be false")
	}
}
