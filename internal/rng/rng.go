// Package rng provides deterministic random number generation for
// simulation experiments.
//
// Reproducibility is a core requirement of the surveyed simulators: a
// deterministic simulation must return identical results for identical
// seeds regardless of host, Go version, or scheduling. The package
// therefore implements its own xoshiro256++ generator (instead of
// math/rand, whose global functions are seeded randomly and whose
// algorithms have changed across releases) and a family of classical
// distributions on top of it.
//
// Independent substreams are derived by name, so the arrival process,
// the service process, and the failure process of a model each consume
// their own stream and adding draws to one never perturbs the others —
// the standard "common random numbers" variance-reduction discipline.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Source is a deterministic xoshiro256++ pseudo-random generator.
// The zero value is not usable; construct with New or Derive.
type Source struct {
	s  [4]uint64
	id uint64 // construction seed, fixed for the life of the Source
}

// New returns a Source seeded from seed via splitmix64, which guarantees
// a well-mixed nonzero internal state for any seed, including 0.
func New(seed uint64) *Source {
	src := Source{id: seed}
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Derive returns an independent substream identified by name.
// Derivation depends only on the parent's construction seed and the
// name — never on how many values the parent has drawn — so equal
// (seed, name) pairs always yield identical streams regardless of
// call order.
func (s *Source) Derive(name string) *Source {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return New(h ^ (s.id * 0x9e3779b97f4a7c15))
}

// MarshalBinary implements encoding.BinaryMarshaler: the construction
// seed plus the four xoshiro256++ state words, 40 fixed bytes. A
// restored Source continues the exact draw sequence of the original
// and derives identical substreams, which is what lets a checkpointed
// simulation resume bit-identically.
func (s *Source) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 40)
	out = binary.BigEndian.AppendUint64(out, s.id)
	for _, w := range s.s {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler, overwriting
// the receiver with a state produced by MarshalBinary. A state it
// refuses leaves the receiver as it was.
func (s *Source) UnmarshalBinary(data []byte) error {
	if len(data) != 40 {
		return fmt.Errorf("rng: state is %d bytes, want 40", len(data))
	}
	var d Source
	d.id = binary.BigEndian.Uint64(data)
	for i := range d.s {
		d.s[i] = binary.BigEndian.Uint64(data[8*(i+1):])
	}
	if d.s[0]|d.s[1]|d.s[2]|d.s[3] == 0 {
		return fmt.Errorf("rng: all-zero state is not a valid xoshiro256++ state")
	}
	*s = d
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[0]+s.s[3], 23) + s.s[0]
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// OpenFloat64 returns a uniform value in (0, 1): never zero, so it is
// safe to take its logarithm.
func (s *Source) OpenFloat64() float64 {
	for {
		v := s.Float64()
		if v > 0 {
			return v
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	lo = a * b
	return
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(s.OpenFloat64()) / rate
}

// Erlang returns an Erlang-k distributed value with the given per-stage
// rate: the sum of k independent Exp(rate) draws.
func (s *Source) Erlang(k int, rate float64) float64 {
	sum := 0.0
	for i := 0; i < k; i++ {
		sum += s.Exp(rate)
	}
	return sum
}

// Normal returns a normally distributed value with mean mu and
// standard deviation sigma (Marsaglia polar method).
func (s *Source) Normal(mu, sigma float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return mu + sigma*u*math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// LogNormal returns exp(Normal(mu, sigma)): the classic heavy-ish
// tailed model for job runtimes and file sizes.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Pareto returns a Pareto(alpha) value scaled by xmin: heavy-tailed,
// used for flow sizes and think times. It panics if alpha <= 0 or
// xmin <= 0.
func (s *Source) Pareto(xmin, alpha float64) float64 {
	if alpha <= 0 || xmin <= 0 {
		panic("rng: Pareto requires positive xmin and alpha")
	}
	return xmin / math.Pow(s.OpenFloat64(), 1/alpha)
}

// BoundedPareto returns a Pareto(alpha) value truncated to [lo, hi].
func (s *Source) BoundedPareto(lo, hi, alpha float64) float64 {
	if !(lo > 0) || hi <= lo || alpha <= 0 {
		panic("rng: BoundedPareto requires 0 < lo < hi and alpha > 0")
	}
	u := s.OpenFloat64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Weibull returns a Weibull(shape, scale) value: the standard model
// for failure inter-arrival times.
func (s *Source) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Weibull requires positive shape and scale")
	}
	return scale * math.Pow(-math.Log(s.OpenFloat64()), 1/shape)
}

// Poisson returns a Poisson(lambda) distributed count.
// For large lambda it uses a normal approximation with continuity
// correction to stay O(1).
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		panic("rng: Poisson with non-positive lambda")
	}
	if lambda > 500 {
		v := s.Normal(lambda, math.Sqrt(lambda)) + 0.5
		if v < 0 {
			return 0
		}
		return int(v)
	}
	// Knuth's product method.
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= s.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials. It panics unless 0 < p <= 1.
func (s *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return int(math.Floor(math.Log(s.OpenFloat64()) / math.Log(1-p)))
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.Float64() < p }
