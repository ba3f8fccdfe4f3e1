// Package rng provides a small, deterministic pseudo-random number
// generator with the distribution draws the market simulations need
// (uniform, normal, Laplace, exponential) plus shuffling and weighted
// sampling.
//
// Every stochastic component in this repository takes an explicit *RNG so
// experiments are reproducible bit-for-bit from a seed: nothing in the
// library touches math/rand global state. The core generator is a 64-bit
// permuted congruential generator (PCG-XSH-RR variant on a 64-bit state,
// splitmix64-seeded), which is small, fast, and statistically strong enough
// for simulation work.
package rng

import (
	"math"

	"github.com/datamarket/shield/internal/binenc"
)

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; give each goroutine its own RNG (see Split).
type RNG struct {
	state uint64
	inc   uint64

	// spare caches the second Box-Muller normal draw.
	spare    float64
	hasSpare bool
}

// New returns an RNG seeded with seed. Distinct seeds yield independent
// looking streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream derived from seed.
func (r *RNG) Seed(seed uint64) {
	// Run the seed through splitmix64 twice to derive state and stream
	// increment, so consecutive integer seeds do not produce correlated
	// streams.
	s := seed
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // must be odd
	r.hasSpare = false
	r.Uint64() // discard first output, decorrelates low-entropy seeds
}

// Split derives a new, independent RNG from r. The child stream is a
// function of the parent state, and splitting also advances the parent, so
// repeated splits yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Fork derives an independent child stream from r's current state and a
// name, without advancing r: the same (state, name) pair always yields
// the same child, and distinct names yield decorrelated streams. Unlike
// Split, Fork is order-independent — a simulation can hand every actor
// its own stream keyed by the actor's identifier, and the streams do not
// change when actors are created in a different order or when unrelated
// draws are added to the parent.
func (r *RNG) Fork(name string) *RNG {
	// FNV-1a over the name, mixed with the parent state through one
	// splitmix64 round so similar names do not seed correlated streams.
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	s := r.state ^ h
	return New(splitmix64(&s))
}

// Snapshot is the full serializable generator state: restoring it
// continues the stream exactly where it left off.
type Snapshot struct {
	State    uint64  `json:"state"`
	Inc      uint64  `json:"inc"`
	Spare    float64 `json:"spare"`
	HasSpare bool    `json:"has_spare"`
}

// Snapshot captures the generator state.
func (r *RNG) Snapshot() Snapshot {
	return Snapshot{State: r.state, Inc: r.inc, Spare: r.spare, HasSpare: r.hasSpare}
}

// Binary walks the snapshot's fields for the binary snapshot codec.
func (s *Snapshot) Binary(c *binenc.Codec) {
	binenc.Fixed(c, &s.State)
	binenc.Fixed(c, &s.Inc)
	c.Float(&s.Spare)
	c.Bool(&s.HasSpare)
}

// Restore reconstructs a generator from a snapshot. The increment is
// forced odd (the PCG stream parameter requirement) in case the snapshot
// was hand-edited.
func Restore(s Snapshot) *RNG {
	return &RNG{state: s.State, inc: s.Inc | 1, spare: s.Spare, hasSpare: s.HasSpare}
}

func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 bits from the stream.
func (r *RNG) Uint64() uint64 {
	// Two dependent 32-bit PCG outputs glued together keep the state small
	// while providing 64 output bits per call.
	hi := r.next32()
	lo := r.next32()
	return uint64(hi)<<32 | uint64(lo)
}

// next32 is PCG-XSH-RR: 64 bits of LCG state, 32 bits out.
func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation on 32-bit words is
	// overkill here; simple rejection keeps the result exactly uniform.
	bound := uint64(n)
	threshold := -bound % bound // = 2^64 mod n
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p (clamped to [0,1]).
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation, via the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	factor := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * factor
	r.hasSpare = true
	return mean + stddev*u*factor
}

// Laplace returns a draw from the Laplace distribution with location mu and
// scale b, used by the differential-privacy pricing mechanism.
func (r *RNG) Laplace(mu, b float64) float64 {
	u := r.Float64() - 0.5
	if u < 0 {
		return mu + b*math.Log(1+2*u)
	}
	return mu - b*math.Log(1-2*u)
}

// Exponential returns a draw from the exponential distribution with the
// given rate (lambda > 0).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential called with rate <= 0")
	}
	u := r.Float64()
	// Guard u == 0: Log(0) is -Inf.
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) { Shuffle(r, s) }

// Shuffle shuffles s in place (Fisher-Yates), taking ShuffleInts' draws:
// any slice of the same length is permuted alike.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// WeightedIndex samples an index with probability proportional to
// weights[i]. Negative weights are treated as zero. It panics if the
// weights sum to zero or the slice is empty.
func (r *RNG) WeightedIndex(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedIndex with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: WeightedIndex with non-positive total weight")
	}
	target := r.Float64() * total
	var acc float64
	last := 0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		last = i
		if target < acc {
			return i
		}
	}
	// Floating point accumulation can leave target == acc; return the last
	// positive-weight index.
	return last
}
