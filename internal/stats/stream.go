package stats

import (
	"fmt"
	"math"
	"sort"
)

// Stream is a streaming summary: count, mean and variance (Welford
// accumulation) plus a fixed-size quantile sketch. It replaces "collect
// every sample, then Summarize" in aggregation paths that must not hold
// all records in memory.
//
// Exactness contract: Count, Min, Max and the sketch's bucket counts are
// integer-exact and independent of sample order. Mean and variance
// accumulate in floating point, so byte-level determinism contracts feed
// samples to a Stream in a canonical order (grid order). Quantiles are
// exact while the sketch holds at most SketchExactCap samples and
// bucket-resolution approximations (relative error ≤ 1/SketchSubBuckets)
// beyond.
type Stream struct {
	Count int64
	// Mean and M2 are Welford accumulators: M2 is the sum of squared
	// deviations from the running mean.
	Mean float64
	M2   float64
	// Min and Max are meaningful only when Count > 0.
	Min, Max float64
	Sketch   QSketch
}

// Add folds one sample into the stream.
func (s *Stream) Add(x float64) {
	s.Count++
	if s.Count == 1 {
		s.Min, s.Max = x, x
	} else {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	delta := x - s.Mean
	s.Mean += delta / float64(s.Count)
	s.M2 += delta * (x - s.Mean)
	s.Sketch.Add(x)
}

// Std returns the sample standard deviation (n−1 denominator), 0 for
// fewer than two samples.
func (s Stream) Std() float64 {
	if s.Count < 2 {
		return 0
	}
	return math.Sqrt(s.M2 / float64(s.Count-1))
}

// Quantile returns the q-th quantile estimate from the sketch.
func (s Stream) Quantile(q float64) float64 { return s.Sketch.Quantile(q) }

// Summary converts the stream into the descriptive-statistics struct the
// table renderers consume. While the sketch is exact (≤ SketchExactCap
// samples) the result is identical to Summarize over the same samples,
// except that Std accumulates by Welford instead of two passes (equal up
// to float rounding). It panics on an empty stream, like Summarize.
func (s Stream) Summary() Summary {
	if s.Count == 0 {
		panic("stats: Summary of empty stream")
	}
	return Summary{
		N:      int(s.Count),
		Mean:   s.Mean,
		Std:    s.Std(),
		Min:    s.Min,
		Max:    s.Max,
		Median: s.Quantile(0.5),
	}
}

// Sketch geometry. Up to SketchExactCap samples the sketch stores the
// sorted multiset and quantiles are exact; past that it collapses into
// log-linear buckets — SketchSubBuckets per power of two — whose counts
// depend only on the sample multiset. Bucketed quantiles carry a
// relative error of at most 1/SketchSubBuckets.
const (
	SketchExactCap   = 256
	SketchSubBuckets = 16
	// sketchExpBias shifts math.Frexp exponents (≥ −1073 for subnormals)
	// to positive bucket keys; key 0 is reserved for the value 0.
	sketchExpBias = 1100
)

// QSketch is a fixed-size quantile sketch. The zero QSketch is
// empty and ready to use.
type QSketch struct {
	// exact holds the sorted samples while the sketch is exact; buckets
	// holds log-linear bucket counts once collapsed. Exactly one of the
	// two representations is active (buckets == nil means exact).
	exact   []float64
	buckets map[int]int64
	n       int64
}

// N returns the number of samples added.
func (q QSketch) N() int64 { return q.n }

// Add inserts one sample.
func (q *QSketch) Add(x float64) {
	q.n++
	if q.buckets != nil {
		q.buckets[bucketKey(x)]++
		return
	}
	if len(q.exact) >= SketchExactCap {
		q.collapse()
		q.buckets[bucketKey(x)]++
		return
	}
	i := sort.SearchFloat64s(q.exact, x)
	q.exact = append(q.exact, 0)
	copy(q.exact[i+1:], q.exact[i:])
	q.exact[i] = x
}

// collapse converts exact storage into bucket counts. Bucketing is
// per-value, so collapse-then-add and add-then-collapse produce the same
// counts.
func (q *QSketch) collapse() {
	q.buckets = make(map[int]int64, len(q.exact))
	for _, x := range q.exact {
		q.buckets[bucketKey(x)]++
	}
	q.exact = nil
}

// Quantile returns the q-th quantile (0 ≤ p ≤ 1): exact (linear
// interpolation between order statistics, matching Quantile) while the
// sketch is exact, a within-bucket interpolation after collapse. It
// panics on an empty sketch or p outside [0, 1].
func (q QSketch) Quantile(p float64) float64 {
	if q.n == 0 {
		panic("stats: Quantile of empty sketch")
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", p))
	}
	if q.buckets == nil {
		if len(q.exact) == 1 {
			return q.exact[0]
		}
		pos := p * float64(len(q.exact)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return q.exact[lo]
		}
		frac := pos - float64(lo)
		return q.exact[lo]*(1-frac) + q.exact[hi]*frac
	}
	keys := make([]int, 0, len(q.buckets))
	for k := range q.buckets {
		keys = append(keys, k)
	}
	// Mirrored negative keys sort below 0 below positive keys, in value
	// order, so an integer sort walks buckets in ascending sample order.
	sort.Ints(keys)
	rank := p * float64(q.n-1)
	var cum int64
	for _, k := range keys {
		cnt := q.buckets[k]
		if rank < float64(cum+cnt) || k == keys[len(keys)-1] {
			lo, hi := bucketBounds(k)
			frac := (rank - float64(cum)) / float64(cnt)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += cnt
	}
	panic("stats: unreachable sketch quantile") // cum covers q.n
}

// bucketKey maps a sample to its log-linear bucket: 0 for 0, positive
// keys for positive values (SketchSubBuckets per octave), mirrored
// negative keys for negative values. Per-value and stateless, which is
// what makes bucket counts a pure function of the sample multiset.
func bucketKey(v float64) int {
	if v == 0 {
		return 0
	}
	neg := v < 0
	if neg {
		v = -v
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac ∈ [0.5, 1)
	sub := int((frac*2 - 1) * SketchSubBuckets)
	if sub >= SketchSubBuckets {
		sub = SketchSubBuckets - 1
	}
	k := (exp+sketchExpBias)*SketchSubBuckets + sub + 1
	if neg {
		return -k
	}
	return k
}

// bucketBounds returns the value interval [lo, hi) bucket k covers.
func bucketBounds(k int) (lo, hi float64) {
	if k == 0 {
		return 0, 0
	}
	neg := k < 0
	if neg {
		k = -k
	}
	idx := k - 1
	exp := idx/SketchSubBuckets - sketchExpBias
	sub := idx % SketchSubBuckets
	lo = math.Ldexp(1+float64(sub)/SketchSubBuckets, exp-1)
	hi = math.Ldexp(1+float64(sub+1)/SketchSubBuckets, exp-1)
	if neg {
		return -hi, -lo
	}
	return lo, hi
}
