package randx

import (
	"math/rand"
	"testing"
)

// eagerSplit is the reference derivation: the child seed Split(label)
// yields, computed the way an eagerly seeded stream always derived it.
func eagerSplit(seed uint64, label string) uint64 {
	h := seed
	for _, b := range []byte(label) {
		h = mix(h ^ uint64(b))
	}
	return mix(h ^ 0x9e3779b97f4a7c15)
}

// eagerSplitN is the reference SplitN derivation.
func eagerSplitN(seed uint64, label string, n int) uint64 {
	return mix(eagerSplit(seed, label) ^ mix(uint64(n)+0x632be59bd9b4e019))
}

// eager is the oracle: the math/rand source a Stream seeded with seed
// must reproduce draw for draw.
func eager(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(mix(seed)))) }

// drawAll runs one pass of every sampler on the lazy stream s and the
// eager oracle o, failing on the first divergence. Bernoulli's clamped
// cases run on s alone: they must not consume a draw, so o stays
// aligned only if they do not.
func drawAll(t *testing.T, seed uint64, s *Stream, o *rand.Rand) {
	t.Helper()
	if a, b := s.Float64(), o.Float64(); a != b {
		t.Fatalf("seed %d: Float64 %v, oracle %v", seed, a, b)
	}
	if a, b := s.Uniform(-3, 8), -3+11*o.Float64(); a != b {
		t.Fatalf("seed %d: Uniform %v, oracle %v", seed, a, b)
	}
	if a, b := s.Intn(97), o.Intn(97); a != b {
		t.Fatalf("seed %d: Intn %v, oracle %v", seed, a, b)
	}
	if a, b := s.Normal(5, 2), 5+2*o.NormFloat64(); a != b {
		t.Fatalf("seed %d: Normal %v, oracle %v", seed, a, b)
	}
	if a, b := s.Exponential(4), o.ExpFloat64()/4; a != b {
		t.Fatalf("seed %d: Exponential %v, oracle %v", seed, a, b)
	}
	if s.Bernoulli(0) || !s.Bernoulli(1) || s.Bernoulli(-1) || !s.Bernoulli(2) {
		t.Fatalf("seed %d: clamped Bernoulli returned the wrong value", seed)
	}
	if a, b := s.Bernoulli(0.3), o.Float64() < 0.3; a != b {
		t.Fatalf("seed %d: Bernoulli(0.3) %v, oracle %v", seed, a, b)
	}
	pa, pb := s.Perm(9), o.Perm(9)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("seed %d: Perm %v, oracle %v", seed, pa, pb)
		}
	}
}

// TestLazyStreamMatchesEagerOracle pins the lazy-seeding contract: a
// stream seeds on its first draw and from then on equals an eagerly
// seeded math/rand source draw for draw, for every sampler, whether its
// children are split before it has drawn or after.
func TestLazyStreamMatchesEagerOracle(t *testing.T) {
	const seeds = 1200
	for i := uint64(0); i < seeds; i++ {
		seed := i
		if i%2 == 1 {
			seed = mix(i) // spread over the full uint64 range too
		}
		s := New(seed)
		o := eager(seed)

		// Children split before the parent's first draw.
		early := s.Split("early")
		earlyN := s.SplitN("node", int(i%17))
		if s.rng != nil {
			t.Fatalf("seed %d: splitting seeded the parent's source", seed)
		}
		drawAll(t, seed, s, o)
		// Children split after the parent has drawn, then the parent
		// draws again: derivation must not disturb its position.
		late := s.Split("early")
		lateN := s.SplitN("node", int(i%17))
		drawAll(t, seed, s, o)

		if early.Seed() != eagerSplit(seed, "early") || late.Seed() != early.Seed() {
			t.Fatalf("seed %d: Split seeds %d/%d, oracle %d", seed, early.Seed(), late.Seed(), eagerSplit(seed, "early"))
		}
		want := eagerSplitN(seed, "node", int(i%17))
		if earlyN.Seed() != want || lateN.Seed() != want {
			t.Fatalf("seed %d: SplitN seeds %d/%d, oracle %d", seed, earlyN.Seed(), lateN.Seed(), want)
		}
		// Children drawn interleaved with grandchildren split from them.
		oe, on := eager(early.Seed()), eager(want)
		drawAll(t, seed, early, oe)
		grand := earlyN.SplitN("req", int(i))
		drawAll(t, seed, earlyN, on)
		drawAll(t, seed, late, eager(late.Seed()))
		drawAll(t, seed, lateN, eager(want))
		drawAll(t, seed, grand, eager(eagerSplitN(want, "req", int(i))))
		drawAll(t, seed, early, oe)
	}
}

// TestClampedBernoulliDoesNotDraw pins that Bernoulli's clamped cases
// consume nothing: they leave a fresh stream unseeded.
func TestClampedBernoulliDoesNotDraw(t *testing.T) {
	s := New(19)
	for i := 0; i < 10; i++ {
		if s.Bernoulli(0) || !s.Bernoulli(1) {
			t.Fatal("clamped Bernoulli returned the wrong value")
		}
	}
	if s.rng != nil {
		t.Error("Bernoulli(0)/Bernoulli(1) seeded the stream's source")
	}
	if a, b := s.Float64(), eager(19).Float64(); a != b {
		t.Errorf("first draw after clamped Bernoulli %v, oracle %v", a, b)
	}
}
