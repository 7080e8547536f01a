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
//
// NewAlias takes ownership of weights: the table scales the slice in
// place into its prob column, so the caller must neither read nor
// write it afterwards. A copy would cost an 8-byte float per column
// (40 MB for a weighted scheduler on a ws:10⁶ graph). Weights that
// fail validation are refused before any is written.
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
	// Vose's stack method: scale weights to mean 1, pair each deficit
	// column with a surplus donor. prob is weights itself, holding the
	// scaled weights until a column is final, and one worklist holds
	// both stacks: small grows up from work[0], large grows down from
	// work[n-1]. Together they hold each column at most once, so they
	// never overlap.
	prob, alias := weights, make([]int32, n)
	work := make([]int32, n)
	ns, nl := 0, 0
	for i, w := range prob {
		// (w/sum)*n, not w*n/sum: w/sum <= 1, so the intermediate cannot
		// overflow even for weights near MaxFloat64.
		prob[i] = w / sum * float64(n)
		if prob[i] < 1 {
			work[ns] = int32(i)
			ns++
		} else {
			nl++
			work[n-nl] = int32(i)
		}
	}
	for ns > 0 && nl > 0 {
		ns--
		s, l := work[ns], work[n-nl]
		alias[s] = l
		prob[l] -= 1 - prob[s]
		if prob[l] < 1 {
			// The donor fell into deficit: move it to the small stack.
			nl--
			work[ns] = l
			ns++
		}
	}
	// Leftovers are full columns up to rounding error.
	for _, i := range work[:ns] {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range work[n-nl:] {
		prob[i] = 1
		alias[i] = i
	}
	return &Alias{prob: prob, alias: alias}, nil
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
