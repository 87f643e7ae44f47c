// Package randx provides deterministic, splittable random number streams
// for reproducible simulation experiments.
//
// Every experiment in this repository takes a single root seed. The root
// seed is split into independent substreams — one per sensor node, one for
// the mobility model, one for deployment, and so on — so that changing the
// number of nodes, or reordering the construction of one component, does
// not perturb the random draws seen by the others. Splitting is done by
// hashing the parent seed with a stream label (SplitMix64 finalisation),
// which is cheap, collision-resistant for our purposes, and fully
// deterministic. A stream seeds its math/rand source only on its first
// draw, so a stream that is only split from costs its seed and nothing
// more.
package randx

import (
	"math/rand"
)

// Stream is a deterministic random stream. It wraps math/rand with a
// seeded source plus convenience samplers used by the simulator.
//
// A Stream holds only its seed until the first draw, which seeds the
// math/rand source (a 607-word table, the costly step). Derivation —
// Seed, Split, SplitN — reads the seed alone: it never seeds a source
// and never mutates the stream, so it is safe from any number of
// goroutines at once. Draws mutate the stream (the first one builds its
// source); a stream that is drawn from is not safe for concurrent use,
// so split one substream per goroutine.
type Stream struct {
	seed uint64
	rng  *rand.Rand // nil until the first draw
}

// New returns a stream rooted at seed.
func New(seed uint64) *Stream { return &Stream{seed: seed} }

// Seed returns the seed this stream was created with.
func (s *Stream) Seed() uint64 { return s.seed }

// src returns the stream's math/rand source, seeding it on first use.
// The draws are exactly those of rand.New(rand.NewSource(int64(mix(seed)))).
func (s *Stream) src() *rand.Rand {
	if s.rng == nil {
		s.seedSource() // kept out of line so src inlines into every sampler
	}
	return s.rng
}

func (s *Stream) seedSource() { s.rng = rand.New(rand.NewSource(int64(mix(s.seed)))) }

// Split derives an independent child stream identified by label. Splitting
// is a pure function of (parent seed, label): the same pair always yields
// the same child, regardless of how many values the parent has produced.
func (s *Stream) Split(label string) *Stream { return New(splitSeed(s.seed, label)) }

// SplitN derives an independent child stream identified by an integer
// index, e.g. one stream per sensor node. It equals s.Split(label) split
// once more by n.
func (s *Stream) SplitN(label string, n int) *Stream {
	return New(mix(splitSeed(s.seed, label) ^ mix(uint64(n)+0x632be59bd9b4e019)))
}

// splitSeed is the seed of the child that Split(label) derives from a
// parent seeded with seed.
func splitSeed(seed uint64, label string) uint64 {
	h := seed
	for i := 0; i < len(label); i++ {
		h = mix(h ^ uint64(label[i]))
	}
	return mix(h ^ 0x9e3779b97f4a7c15)
}

// Float64 returns a uniform sample in [0, 1).
func (s *Stream) Float64() float64 { return s.src().Float64() }

// Uniform returns a uniform sample in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.src().Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int { return s.src().Intn(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (s *Stream) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.src().NormFloat64()
}

// Exponential returns an exponential sample with the given rate (mean
// 1/rate). It panics if rate <= 0.
func (s *Stream) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("randx: non-positive exponential rate")
	}
	return s.src().ExpFloat64() / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]). The
// clamped cases p <= 0 and p >= 1 draw nothing.
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.src().Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.src().Perm(n) }

// mix is the SplitMix64 finalizer: a bijective avalanche function on
// uint64 used to decorrelate derived seeds.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
