package vector

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestNumPairs(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {4, 6}, {5, 10}, {10, 45}, {40, 780},
	}
	for _, tt := range tests {
		if got := NumPairs(tt.n); got != tt.want {
			t.Errorf("NumPairs(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestPairIndexEnumeration(t *testing.T) {
	// The enumeration of Def. 5: (0,1),(0,2),...,(0,n-1),(1,2),...
	n := 5
	want := [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	for idx, p := range want {
		if got := PairIndex(p[0], p[1], n); got != idx {
			t.Errorf("PairIndex(%d,%d,%d) = %d, want %d", p[0], p[1], n, got, idx)
		}
		i, j := PairAt(idx, n)
		if i != p[0] || j != p[1] {
			t.Errorf("PairAt(%d,%d) = (%d,%d), want %v", idx, n, i, j, p)
		}
	}
}

func TestPairIndexBijection(t *testing.T) {
	for _, n := range []int{2, 3, 7, 20, 40} {
		seen := make([]bool, NumPairs(n))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				idx := PairIndex(i, j, n)
				if idx < 0 || idx >= len(seen) || seen[idx] {
					t.Fatalf("n=%d: index %d for (%d,%d) invalid or duplicated", n, idx, i, j)
				}
				seen[idx] = true
				ri, rj := PairAt(idx, n)
				if ri != i || rj != j {
					t.Fatalf("n=%d: PairAt(PairIndex(%d,%d)) = (%d,%d)", n, i, j, ri, rj)
				}
			}
		}
	}
}

func TestPairIndexPanics(t *testing.T) {
	for _, c := range [][3]int{{1, 1, 4}, {2, 1, 4}, {0, 4, 4}, {-1, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PairIndex(%v) should panic", c)
				}
			}()
			PairIndex(c[0], c[1], c[2])
		}()
	}
}

func TestPairAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PairAt out of range should panic")
		}
	}()
	PairAt(6, 4)
}

func TestGetSet(t *testing.T) {
	v := New(4)
	v.Set(1, 3, 4, Nearer)
	if got := v.Get(1, 3, 4); got != Nearer {
		t.Errorf("Get = %v, want Nearer", got)
	}
	if got := v.Get(0, 1, 4); got != Flipped {
		t.Errorf("unset component = %v, want Flipped", got)
	}
}

func TestStar(t *testing.T) {
	if !Star.IsStar() {
		t.Error("Star.IsStar() must be true")
	}
	if Nearer.IsStar() || Farther.IsStar() || Flipped.IsStar() {
		t.Error("ternary values must not be Star")
	}
	if Star.String() != "*" {
		t.Errorf("Star.String() = %q", Star.String())
	}
}

func TestValueString(t *testing.T) {
	if got := Nearer.String(); got != "+1" {
		t.Errorf("Nearer = %q", got)
	}
	if got := Farther.String(); got != "-1" {
		t.Errorf("Farther = %q", got)
	}
	if got := Flipped.String(); got != "+0" {
		t.Errorf("Flipped = %q", got)
	}
	if got := Value(0.33).String(); got != "+0.330" {
		t.Errorf("fractional = %q", got)
	}
}

func TestDiffStarsZero(t *testing.T) {
	// eq. 7: a component containing a star never contributes.
	a := Vector{Nearer, Star, Farther, Star}
	b := Vector{Farther, Nearer, Star, Star}
	d := Diff(a, b)
	want := Vector{2, 0, 0, 0}
	for k := range want {
		if d[k] != want[k] {
			t.Errorf("Diff[%d] = %v, want %v", k, d[k], want[k])
		}
	}
}

func TestDistancePaperExample(t *testing.T) {
	// Sec. 4.4(3): V_d = [1,1,1,-1,*,1] vs V_s(f8) = [1,1,1,0,0,0].
	// The star never contributes (eq. 7); the two non-star mismatches are
	// ±1 each, so the Euclidean distance is √2. (The paper prints "1/2"
	// at this spot, which is the Manhattan similarity — its own Sec. 6
	// worked examples use the Euclidean norm of Def. 7, which we follow.)
	vd := Vector{1, 1, 1, -1, Star, 1}
	vs := FromInts(1, 1, 1, 0, 0, 0)
	if got := Distance(vd, vs); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("Distance = %v, want √2", got)
	}
	if got := Similarity(vd, vs); math.Abs(got-1/math.Sqrt2) > 1e-12 {
		t.Errorf("Similarity = %v, want 1/√2", got)
	}
}

func TestExtendedSimilarityPaperExample(t *testing.T) {
	// Sec. 6 example: extended V_d = [0.33..,1,1,1,1,-1] against the
	// signatures of f1..f6 in Fig. 7; paper reports S(f1) = 1.5 as the
	// unique maximum. We verify the arithmetic of the similarity law on
	// the f1 case: difference (1/3 - 1) = -2/3, all else equal → S = 1.5.
	vd := Vector{Value(1.0 / 3), 1, 1, 1, 1, -1}
	f1 := FromInts(1, 1, 1, 1, 1, -1)
	if got := Similarity(vd, f1); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("S(f1) = %v, want 1.5", got)
	}
	// Paper: S(f4) = 1/√((1/3)²+1) ≈ 0.949 — f4 matches the flipped first
	// pair but differs by one full component elsewhere.
	f4 := FromInts(0, 1, 1, 1, 1, 0)
	want := 1 / math.Sqrt(1.0/9+1)
	if got := Similarity(vd, f4); math.Abs(got-want) > 1e-9 {
		t.Errorf("S(f4) = %v, want %v", got, want)
	}
	if Similarity(vd, f1) <= Similarity(vd, f4) {
		t.Error("f1 should win over f4 with extended values")
	}
}

func TestSimilarityIdentical(t *testing.T) {
	a := FromInts(1, 0, -1)
	if got := Similarity(a, a.Clone()); !math.IsInf(got, 1) {
		t.Errorf("identical similarity = %v, want +Inf", got)
	}
}

func TestSimilarityTieWithoutExtension(t *testing.T) {
	// Sec. 6 motivation: ternary sampling vector [0,1,1,1,1,-1] ties
	// between f1 = [1,1,1,1,1,-1] and f4 = [0,1,1,1,1,-1]... in the paper
	// f1 and f4 both reach similarity 1. Reproduce a tie.
	vd := FromInts(0, 1, 1, 1, 1, -1)
	f1 := FromInts(1, 1, 1, 1, 1, -1)
	f4 := FromInts(0, 1, 1, 1, 1, 0)
	if Similarity(vd, f1) != Similarity(vd, f4) {
		t.Errorf("expected tie: %v vs %v", Similarity(vd, f1), Similarity(vd, f4))
	}
}

func TestDistanceSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := []Value{Farther, Flipped, Nearer, Star}
	randVec := func() Vector {
		v := make(Vector, 10)
		for k := range v {
			v[k] = vals[rng.Intn(len(vals))]
		}
		return v
	}
	for trial := 0; trial < 500; trial++ {
		a, b, c := randVec(), randVec(), randVec()
		if math.Abs(Distance(a, b)-Distance(b, a)) > 1e-12 {
			t.Fatal("distance not symmetric")
		}
		if Distance(a, a) != 0 {
			t.Fatal("self-distance nonzero")
		}
		// Triangle inequality holds for star-free vectors; with stars the
		// modified difference can violate it, so restrict:
		if a.CountStars() == 0 && b.CountStars() == 0 && c.CountStars() == 0 {
			if Distance(a, c) > Distance(a, b)+Distance(b, c)+1e-12 {
				t.Fatal("triangle inequality violated on star-free vectors")
			}
		}
	}
}

func TestKeyInjectiveOnTernary(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := []Value{Farther, Flipped, Nearer, Star}
	seen := map[string]Vector{}
	for trial := 0; trial < 2000; trial++ {
		v := make(Vector, 8)
		for k := range v {
			v[k] = vals[rng.Intn(len(vals))]
		}
		key := v.Key()
		if prev, ok := seen[key]; ok && !slices.EqualFunc(prev, v, func(a, b Value) bool { return a == b || a.IsStar() && b.IsStar() }) {
			t.Fatalf("key collision: %v vs %v → %q", prev, v, key)
		}
		seen[key] = v
	}
}

func TestCountHelpers(t *testing.T) {
	v := Vector{Nearer, Star, Flipped, Flipped, Star, Farther}
	if got := v.CountStars(); got != 2 {
		t.Errorf("CountStars = %d, want 2", got)
	}
	if got := v.CountFlipped(); got != 2 {
		t.Errorf("CountFlipped = %d, want 2", got)
	}
}

func TestString(t *testing.T) {
	v := Vector{Nearer, Star, Farther}
	if got := v.String(); got != "[+1,*,-1]" {
		t.Errorf("String = %q", got)
	}
}

func TestDiffPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Diff with mismatched dims should panic")
		}
	}()
	Diff(New(3), New(4))
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distance with mismatched dims should panic")
		}
	}()
	Distance(New(3), New(4))
}
