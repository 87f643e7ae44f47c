package randx

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different seeds matched on %d/100 draws", same)
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	childBefore := a.Split("mobility").Float64()
	b := New(7)
	for i := 0; i < 50; i++ {
		b.Float64() // consume parent draws
	}
	childAfter := b.Split("mobility").Float64()
	if childBefore != childAfter {
		t.Error("Split should be independent of parent consumption")
	}
}

func TestSplitLabelsDistinct(t *testing.T) {
	root := New(7)
	x := root.Split("noise").Float64()
	y := root.Split("deploy").Float64()
	if x == y {
		t.Error("different labels should give different streams")
	}
}

func TestSplitNDistinct(t *testing.T) {
	root := New(9)
	seen := map[float64]int{}
	for i := 0; i < 64; i++ {
		v := root.SplitN("node", i).Float64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("SplitN(%d) collided with SplitN(%d)", i, prev)
		}
		seen[v] = i
	}
}

func TestSplitNReproducible(t *testing.T) {
	if New(3).SplitN("node", 5).Float64() != New(3).SplitN("node", 5).Float64() {
		t.Error("SplitN not reproducible")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(11)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(-3, 8)
		if v < -3 || v >= 8 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ≈5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %v, want ≈2", math.Sqrt(variance))
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(4)
	}
	if mean := sum / n; math.Abs(mean-0.25) > 0.01 {
		t.Errorf("exponential mean = %v, want ≈0.25", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exponential(0) should panic")
		}
	}()
	New(1).Exponential(0)
}

func TestBernoulli(t *testing.T) {
	s := New(19)
	if s.Bernoulli(0) {
		t.Error("p=0 must be false")
	}
	if !s.Bernoulli(1) {
		t.Error("p=1 must be true")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("empirical p = %v, want ≈0.3", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(23).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestMixBijectiveSample(t *testing.T) {
	// mix must not collide on a small sample (it is bijective in theory).
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10000; i++ {
		m := mix(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("mix collision: mix(%d) == mix(%d)", i, prev)
		}
		seen[m] = i
	}
}
