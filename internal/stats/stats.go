// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries with confidence intervals, quantiles,
// harmonic numbers, and least-squares fits (including log–log scaling-
// exponent fits used to compare measured growth rates against the paper's
// asymptotic bounds).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes descriptive statistics. It panics on empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean.
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.Std / math.Sqrt(float64(s.N))
}

// String renders "mean ± ci (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.CI95(), s.N)
}

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between order statistics. It does not mutate xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean. It panics on empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty sample")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Harmonic returns the n-th harmonic number H_n = 1 + 1/2 + ... + 1/n.
func Harmonic(n int) float64 {
	// Exact summation below the switchover, asymptotic expansion above.
	if n <= 0 {
		return 0
	}
	if n < 256 {
		var h float64
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	const gamma = 0.5772156649015329
	nf := float64(n)
	return math.Log(nf) + gamma + 1/(2*nf) - 1/(12*nf*nf)
}

// LinearFit fits y = a + b·x by ordinary least squares and returns the
// intercept a, slope b and the coefficient of determination R².
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs two equal-length samples of size >= 2")
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		panic("stats: LinearFit with constant x")
	}
	b = (n*sxy - sx*sy) / denom
	a = (sy - b*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		return a, b, 1
	}
	var ssRes float64
	for i := range xs {
		d := ys[i] - (a + b*xs[i])
		ssRes += d * d
	}
	return a, b, 1 - ssRes/ssTot
}

// LogLogSlope fits log(y) = a + b·log(x) and returns the exponent b and
// R². Used to estimate the polynomial growth rate of measured times: a
// measured T(n) = Θ(n^k) ladder should produce b ≈ k. All inputs must be
// positive.
func LogLogSlope(xs, ys []float64) (slope, r2 float64) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			panic("stats: LogLogSlope needs positive data")
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	_, b, r := LinearFit(lx, ly)
	return b, r
}
