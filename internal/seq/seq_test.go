package seq

import (
	"math"
	"math/rand"
	"testing"
)

func TestRanks(t *testing.T) {
	r := Ranks([]int{7, 3, 5})
	if r[7] != 0 || r[3] != 1 || r[5] != 2 {
		t.Errorf("Ranks = %v", r)
	}
}

func TestByDescending(t *testing.T) {
	ids := []int{0, 1, 2, 3}
	scores := map[int]float64{0: 2, 1: 9, 2: 2, 3: 5}
	got := ByDescending(ids, func(id int) float64 { return scores[id] })
	want := []int{1, 3, 0, 2} // tie 0/2 broken by ID
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ByDescending = %v, want %v", got, want)
		}
	}
	// Input must not be mutated.
	if ids[0] != 0 || ids[3] != 3 {
		t.Error("input mutated")
	}
}

func TestByAscending(t *testing.T) {
	ids := []int{0, 1, 2}
	scores := map[int]float64{0: 5, 1: 1, 2: 5}
	got := ByAscending(ids, func(id int) float64 { return scores[id] })
	want := []int{1, 0, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ByAscending = %v, want %v", got, want)
		}
	}
}

func TestSpearmanExtremes(t *testing.T) {
	a := []int{1, 2, 3, 4, 5}
	same, err := Spearman(a, []int{1, 2, 3, 4, 5})
	if err != nil || same != 1 {
		t.Errorf("identical Spearman = %v, %v", same, err)
	}
	rev, err := Spearman(a, []int{5, 4, 3, 2, 1})
	if err != nil || rev != -1 {
		t.Errorf("reversed Spearman = %v, %v", rev, err)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Swap two adjacent elements of a 4-sequence: d² = 1+1 = 2,
	// rho = 1 - 6*2/(4*15) = 0.8.
	got, err := Spearman([]int{1, 2, 3, 4}, []int{2, 1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.8) > 1e-12 {
		t.Errorf("Spearman = %v, want 0.8", got)
	}
}

func TestSpearmanErrors(t *testing.T) {
	if _, err := Spearman([]int{1, 2}, []int{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Spearman([]int{1, 1}, []int{1, 2}); err == nil {
		t.Error("duplicate IDs should error")
	}
	if _, err := Spearman([]int{1, 2}, []int{1, 3}); err == nil {
		t.Error("different ID sets should error")
	}
}

func TestSpearmanShort(t *testing.T) {
	got, err := Spearman([]int{1}, []int{1})
	if err != nil || got != 0 {
		t.Errorf("singleton Spearman = %v, %v", got, err)
	}
}

// TestSpearmanRandomPermutations checks Spearman on random orderings:
// it stays in [-1, 1], and reversing one ordering negates it.
func TestSpearmanRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for trial := 0; trial < 200; trial++ {
		perm := append([]int(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		rev := make([]int, len(perm))
		for i, id := range perm {
			rev[len(perm)-1-i] = id
		}
		rho, err1 := Spearman(base, perm)
		rhoRev, err2 := Spearman(base, rev)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if rho < -1-1e-9 || rho > 1+1e-9 {
			t.Fatalf("out of range: rho=%v for %v", rho, perm)
		}
		if math.Abs(rho+rhoRev) > 1e-12 {
			t.Fatalf("reversal not antisymmetric: rho=%v, reversed %v for %v", rho, rhoRev, perm)
		}
	}
}
