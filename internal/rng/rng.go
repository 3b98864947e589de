// Package rng provides deterministic, seedable randomness for the
// simulator. Every stochastic component of the system (noise, jitter,
// drift, placement) draws from an explicit *Source so experiments are
// reproducible run-to-run and independent components can be re-seeded
// without perturbing each other.
package rng

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand with the
// distributions the simulator needs. A Source is not safe for concurrent
// use; derive one per goroutine with Split.
type Source struct {
	seed int64
	r    *rand.Rand // built from seed on the first draw
}

// New returns a Source seeded with seed. Seeding math/rand costs
// ~10 µs, so it waits for the first draw: a Source that is never drawn
// from (many Split children are not) never pays it.
func New(seed int64) *Source {
	return &Source{seed: seed}
}

// gen returns the generator, seeding it on first use. The seeding is
// its own function so that gen stays small enough to inline.
func (s *Source) gen() *rand.Rand {
	if s.r == nil {
		s.seedGen()
	}
	return s.r
}

func (s *Source) seedGen() { s.r = rand.New(rand.NewSource(s.seed)) }

// Split derives a new, statistically independent Source from s. The
// derived source is keyed by label so that adding a new consumer does
// not shift the streams of existing ones.
func (s *Source) Split(label string) *Source {
	// Mix the label into a new seed via FNV-1a over the label bytes,
	// combined with a draw from the parent stream.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime64
	}
	h ^= uint64(s.gen().Int63())
	return New(int64(h))
}

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.gen().Float64() }

// Intn returns a uniform draw in [0,n).
func (s *Source) Intn(n int) int { return s.gen().Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.gen().Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.gen().Float64()
}

// Norm returns a Gaussian draw with the given mean and standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.gen().NormFloat64()
}

// ComplexNorm returns a circularly symmetric complex Gaussian draw with
// total variance sigma2 (i.e. variance sigma2/2 per real dimension).
// This is the standard model for complex baseband thermal noise.
func (s *Source) ComplexNorm(sigma2 float64) complex128 {
	r, sd := s.gen(), math.Sqrt(sigma2/2)
	return complex(sd*r.NormFloat64(), sd*r.NormFloat64())
}

// Phase returns a uniform phase in [0, 2π).
func (s *Source) Phase() float64 { return 2 * math.Pi * s.gen().Float64() }

// UnitPhasor returns e^{jθ} for a uniform random phase θ.
func (s *Source) UnitPhasor() complex128 {
	th := s.Phase()
	return complex(math.Cos(th), math.Sin(th))
}

// Tolerance returns a multiplicative factor 1+u where u is uniform in
// [-tol, +tol]. Used for component tolerances such as the ±20% receive
// capacitor spread the paper describes.
func (s *Source) Tolerance(tol float64) float64 {
	return 1 + s.Uniform(-tol, tol)
}

// PPM returns a multiplicative clock-drift factor 1+d where d is uniform
// in [-ppm, +ppm] parts per million.
func (s *Source) PPM(ppm float64) float64 {
	return 1 + s.Uniform(-ppm, ppm)/1e6
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.gen().Perm(n) }

// Bit returns 0 or 1 with equal probability.
func (s *Source) Bit() byte { return byte(s.gen().Int63() & 1) }

// Bits returns n independent uniform bits.
func (s *Source) Bits(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = s.Bit()
	}
	return b
}

// Sign returns -1.0 or +1.0 with equal probability (Buzz's random
// combination coefficients).
func (s *Source) Sign() float64 {
	if s.gen().Int63()&1 == 0 {
		return -1
	}
	return 1
}
