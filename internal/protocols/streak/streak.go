// Package streak implements the space-efficient local approximate clock of
// Section 5.1: each node keeps a streak counter in {0, ..., h}; an
// initiator increments it, a responder resets it to zero, and reaching h
// "completes a streak" (a clock tick) and resets the counter.
//
// The number K of interactions a node needs to complete a streak is the
// number of fair coin flips to see h consecutive heads:
//
//	E[K] = 2^{h+1} − 2                  (Lemma 27a)
//	Geom(2^{-h}) ⪯ K ⪯ Geom(2^{-h-1})+h (Lemma 26)
//
// and the number of scheduler steps X(d) for a degree-d node satisfies
// E[X(d)] = E[K]·m/d (Lemma 27b). The package also provides the direct
// samplers for K, X(d), R and S(d, ℓ) used by experiment E8.
package streak

import (
	"fmt"

	"popgraph/internal/xrand"
)

// MaxH is the largest streak length NewClock accepts.
const MaxH = 60

// Clock is a per-population array of streak counters. The zero value is
// unusable; create with NewClock.
type Clock struct {
	h      int
	streak []uint16
}

// NewClock returns a clock with streak-completion length h >= 1 for a
// population of n nodes. It uses exactly h+1 states per node.
func NewClock(h, n int) *Clock {
	if h < 1 {
		panic(fmt.Sprintf("streak: h must be >= 1, got %d", h))
	}
	if h > MaxH {
		panic(fmt.Sprintf("streak: h = %d unreasonably large", h))
	}
	return &Clock{h: h, streak: make([]uint16, n)}
}

// Reset zeroes all counters.
func (c *Clock) Reset() {
	for i := range c.streak {
		c.streak[i] = 0
	}
}

// Tick processes one interaction with initiator u and responder v and
// reports whether u completed a streak (the clock "ticked" at u).
func (c *Clock) Tick(u, v int) bool {
	c.streak[v] = 0
	s := c.streak[u] + 1
	if int(s) == c.h {
		c.streak[u] = 0
		return true
	}
	c.streak[u] = s
	return false
}

// SampleK draws the number of interactions a fixed node needs to complete
// one streak of length h: fair coin flips until h consecutive heads.
func SampleK(h int, r *xrand.Rand) int64 {
	var flips int64
	run := 0
	for {
		flips++
		if r.Bool() {
			run++
			if run == h {
				return flips
			}
		} else {
			run = 0
		}
	}
}

// SampleX draws X(d): the number of scheduler steps until a fixed node of
// degree d, in a graph with m edges, completes one streak of length h.
// Between its interactions the node waits Geom(d/m) steps.
func SampleX(h, d, m int, r *xrand.Rand) int64 {
	if d < 1 || m < 1 || d > m {
		panic(fmt.Sprintf("streak: SampleX(d=%d, m=%d) invalid", d, m))
	}
	p := float64(d) / float64(m)
	var steps int64
	run := 0
	for {
		steps += r.Geometric(p)
		if r.Bool() {
			run++
			if run == h {
				return steps
			}
		} else {
			run = 0
		}
	}
}

// SampleR draws R: the number of interactions to complete ell streaks
// (a sum of ell independent copies of K, Lemma 28).
func SampleR(h, ell int, r *xrand.Rand) int64 {
	var total int64
	for i := 0; i < ell; i++ {
		total += SampleK(h, r)
	}
	return total
}

// ExpectedK returns E[K] = 2^{h+1} − 2 (Lemma 27a).
func ExpectedK(h int) float64 { return float64(int64(1)<<(h+1)) - 2 }

// ExpectedX returns E[X(d)] = E[K]·m/d (Lemma 27b).
func ExpectedX(h, d, m int) float64 { return ExpectedK(h) * float64(m) / float64(d) }
