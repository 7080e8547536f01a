package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the rule Python's statistics.quantiles(xs, n=4) uses by default
// (the "exclusive" method), so the spreads this benchmark reports are
// the ones a script computing them from its output would get. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// relSpread is the interquartile range of xs as a share of its median.
func relSpread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// tailPercentiles are the percentiles a timing distribution's tail is
// reported at, in thousandths of a percent.
var tailPercentiles = []int{50000, 90000, 99000, 99900, 99990, 99999}

// tailPercentile returns the highest of tailPercentiles that has at
// least ten of n samples beyond it, or the median when none has.
func tailPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		// The p-th percentile is the rank-th smallest sample, with rank
		// rounded up; integer arithmetic keeps 99.99% of 100000 exact.
		rank := (int64(n)*int64(p) + 99999) / 100000
		if int64(n)-rank >= 10 {
			best = p
		}
	}
	return float64(best) / 1000
}

// Bound calibration. A metric's bound is the share of the baseline
// median by which it may worsen before a change counts as a regression.
const (
	minBound = 0.05
	maxBound = 0.25
	// spreadsPerBound keeps the run-to-run spread under a third of the
	// bound, so an unchanged program stays inside it.
	spreadsPerBound = 3
)

// calibratedBound turns a metric's run-to-run spread (interquartile
// range over median) into its bound: spreadsPerBound spreads, at least
// minBound, rounded up to a whole percent and capped at maxBound.
func calibratedBound(spread float64) float64 {
	b := math.Ceil(spreadsPerBound*spread*100-1e-9) / 100
	return math.Min(math.Max(b, minBound), maxBound)
}

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictSame       = "same"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric's samples from a change (cur) against the
// baseline's (base). worsening is the signed relative change of the
// median in the metric's bad direction (positive = worse). The rules:
//
//   - unresolved: either side's spread exceeds the bound, so the bound
//     cannot tell a change from noise — unless every current sample
//     beats every baseline sample, which is better;
//   - worse: the median worsened by more than the bound (and by more
//     than the absolute floor);
//   - better: at least nine tenths of all (current, baseline) sample
//     pairs favour the change and the medians differ by more than the
//     baseline's own interquartile range and the floor;
//   - same: otherwise.
func verdict(base, cur []float64, better string, bound, floor float64) (string, float64) {
	bq1, bmed, bq3 := quartiles(base)
	_, cmed, _ := quartiles(cur)
	sign := 1.0 // +1 when larger values are worse
	if better == "higher" {
		sign = -1
	}
	worsening := sign * (cmed - bmed) / math.Abs(bmed)
	wins, pairs := 0, 0
	for _, c := range cur {
		for _, b := range base {
			pairs++
			if sign*(c-b) < 0 {
				wins++
			}
		}
	}
	change := math.Abs(cmed - bmed)
	tooWide := math.Max(relSpread(base), relSpread(cur)) > bound
	switch {
	case tooWide && wins == pairs:
		return verdictBetter, worsening
	case tooWide:
		return verdictUnresolved, worsening
	case worsening > bound && change > floor:
		return verdictWorse, worsening
	case worsening < 0 && 10*wins >= 9*pairs && change > bq3-bq1 && change > floor:
		return verdictBetter, worsening
	}
	return verdictSame, worsening
}
