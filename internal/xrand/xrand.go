// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The generator is xoshiro256++ seeded via splitmix64, following the
// reference constructions of Blackman and Vigna. It is not safe for
// concurrent use; create one generator per goroutine.
//
// The simulator relies on xrand for reproducibility: every run of every
// protocol, scheduler and experiment takes an explicit *Rand, so a fixed
// seed reproduces an execution exactly.
package xrand

import (
	"math"
	"math/bits"
)

// Rand is a xoshiro256++ pseudo-random number generator.
// The zero value is not valid; use New.
type Rand struct {
	s [4]uint64
}

// State is a snapshot of a generator's full internal state, taken with
// Save and reinstated with Restore. The simulator's block-sampling fast
// path uses snapshots to prefetch randomness in bulk and later rewind the
// generator to the position it would have reached drawing one value at a
// time.
type State [4]uint64

// Save returns a snapshot of the generator's current state.
func (r *Rand) Save() State { return r.s }

// Restore rewinds the generator to a previously saved state; the output
// stream continues exactly as it did from that point.
func (r *Rand) Restore(s State) { r.s = s }

// New returns a generator deterministically seeded from seed.
// Distinct seeds yield independent-looking streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 expansion of the seed into the 256-bit state, as
	// recommended by the xoshiro authors. splitmix64 is an equidistributed
	// bijection, so no state can be all zeros unless all four outputs are
	// zero, which splitmix64 cannot produce from a single stream.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Fill overwrites buf with consecutive Uint64 outputs. The stream is
// identical to len(buf) individual Uint64 calls; the point is speed: the
// 256-bit state lives in registers for the whole block instead of being
// loaded and stored once per draw. The scheduler fast path consumes its
// randomness through Fill.
func (r *Rand) Fill(buf []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range buf {
		buf[i] = bits.RotateLeft64(s0+s3, 23) + s0
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Skip advances the generator by n draws, discarding the outputs; the
// state afterwards equals the state after n Uint64 calls.
func (r *Rand) Skip(n int) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for ; n > 0; n-- {
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// Uintn returns a uniform integer in [0, n). It panics if n == 0.
// Uses Lemire's nearly-divisionless unbiased method.
func (r *Rand) Uintn(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uintn with n == 0")
	}
	x := r.Uint64()
	hi, lo := bits.Mul64(x, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, n)
		}
	}
	_ = lo
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uintn(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return Float64From(r.Uint64())
}

// Float64From maps one Uint64 output x to the float64 in [0, 1) that
// Float64 would have returned for that draw. The simulator's
// block-sampling kernels prefetch raw uint64 blocks through Fill and
// convert in place, so a prefetched float consumes exactly one stream
// position — the same as a live Float64 call — keeping block execution
// byte-identical to draw-at-a-time execution. The outer conversion
// rounds the result, so a caller's 1−U cannot fuse with it into one
// FMA on arm64.
func Float64From(x uint64) float64 {
	return float64(float64(x>>11) / (1 << 53))
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Geometric returns a sample of Geom(p): the number of Bernoulli(p) trials
// up to and including the first success (support {1, 2, ...}).
// It panics unless 0 < p <= 1.
func (r *Rand) Geometric(p float64) int64 {
	if p <= 0 || p > 1 {
		panic("xrand: Geometric needs 0 < p <= 1")
	}
	if p == 1 {
		return 1
	}
	// Inversion: ceil(ln(U) / ln(1-p)) with U in (0, 1].
	u := 1 - r.Float64() // in (0, 1]
	g := int64(math.Ceil(math.Log(u) / math.Log1p(-p)))
	if g < 1 {
		g = 1
	}
	return g
}

// Binomial returns a sample of Bin(n, p) by direct summation of Bernoulli
// trials for small n and a BTRS-free geometric-skip method for small p.
func (r *Rand) Binomial(n int64, p float64) int64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	// Geometric skipping: expected work O(np).
	var count, i int64
	for {
		i += r.Geometric(p)
		if i > n {
			return count
		}
		count++
	}
}
