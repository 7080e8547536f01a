package xrand

import (
	"fmt"
	"math"
)

// Alias is a Walker–Vose alias table: O(n) construction over a fixed
// discrete distribution, O(1) sampling with two generator draws. The
// weighted interaction scheduler uses one to sample edges proportionally
// to per-edge rates; tables are immutable after construction and safe
// for concurrent sampling with per-goroutine generators.
type Alias struct {
	prob  []float64
	alias []int32
}

// NewAlias builds an alias table over weights. Weights must be finite
// and nonnegative with a positive sum; zero-weight entries are valid and
// are never sampled.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("xrand: alias table over no weights")
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("xrand: alias table over %d weights too large", n)
	}
	sum := 0.0
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("xrand: alias weight %d is %v", i, w)
		}
		sum += w
	}
	// A sum that overflowed would make every scaled weight NaN and the
	// table silently wrong, not invalid.
	if sum <= 0 || math.IsInf(sum, 0) {
		return nil, fmt.Errorf("xrand: alias weights sum to %v", sum)
	}
	a := &Alias{prob: make([]float64, n), alias: make([]int32, n)}
	// Vose's stack method: scale weights to mean 1, pair each deficit
	// column with a surplus donor.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		// (w/sum)*n, not w*n/sum: w/sum <= 1, so the intermediate cannot
		// overflow even for weights near MaxFloat64.
		scaled[i] = w / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Leftovers are full columns up to rounding error.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// N returns the number of columns (the support size).
func (a *Alias) N() int { return len(a.prob) }

// Table exposes the table's two columns — column i is accepted when a
// uniform [0,1) draw lands below prob[i], otherwise alias[i] is
// returned. The simulator's monomorphized weighted and node-clock
// kernels replay Sample's exact draw sequence from prefetched
// randomness through these slices. Callers must treat both as
// read-only.
func (a *Alias) Table() (prob []float64, alias []int32) { return a.prob, a.alias }

// Sample draws an index distributed proportionally to the construction
// weights, consuming exactly one Intn and one Float64 draw.
func (a *Alias) Sample(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}
