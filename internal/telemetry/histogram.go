// Log-bucketed latency histograms. A HistSnapshot keeps power-of-two
// buckets sparsely, so two histograms recorded on different workers (or
// different shards of a sweep) merge by plain bucket-wise addition — the
// merge of the parts is exactly the histogram of the whole.

package telemetry

import (
	"math"
	"slices"
	"sort"
)

// histBuckets is the bucket count: bucket 0 holds non-positive values,
// bucket i (1 <= i <= 63) holds values v with 2^(i-1) <= v < 2^i, so
// every positive int64 lands in a bucket with ~2x resolution — plenty
// for latency distributions spanning nanoseconds to hours.
const histBuckets = 64

// bucketOf maps a sample to its bucket index: 0 for v <= 0, otherwise
// 1 + floor(log2 v).
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	b := 0
	for u := uint64(v); u != 0; u >>= 1 {
		b++
	}
	return b
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// HistBucket is one populated bucket of a histogram snapshot: Lo is the
// bucket's inclusive lower bound (its exclusive upper bound is the next
// bucket's Lo, i.e. 2*Lo for Lo > 0), Count the number of samples in it.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Count int64 `json:"count"`
}

// HistSnapshot is a log-bucketed histogram of int64 samples (typically
// nanoseconds) as plain values, mergeable and JSON-encodable. Only
// populated buckets are kept, in ascending Lo order. The zero value is
// the empty histogram; it is not safe for concurrent use (Counters
// guards its own).
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Add records one sample, keeping Buckets sorted.
func (s *HistSnapshot) Add(v int64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	lo := bucketLo(bucketOf(v))
	i := sort.Search(len(s.Buckets), func(i int) bool { return s.Buckets[i].Lo >= lo })
	if i < len(s.Buckets) && s.Buckets[i].Lo == lo {
		s.Buckets[i].Count++
		return
	}
	s.Buckets = slices.Insert(s.Buckets, i, HistBucket{Lo: lo, Count: 1})
}

// Merge returns the histogram of the combined sample: bucket-wise sums,
// summed counts and totals, elementwise min/max. Merging with the zero
// HistSnapshot is the identity, so shards with no samples merge away.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	if s.Count == 0 {
		s.Min, s.Max = o.Min, o.Max
	} else if o.Count > 0 {
		s.Min, s.Max = min(s.Min, o.Min), max(s.Max, o.Max)
	}
	out := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Min: s.Min, Max: s.Max}
	var merged [histBuckets]int64
	for _, b := range s.Buckets {
		merged[bucketOf(b.Lo)] += b.Count
	}
	for _, b := range o.Buckets {
		merged[bucketOf(b.Lo)] += b.Count
	}
	for i, c := range merged {
		if c != 0 {
			out.Buckets = append(out.Buckets, HistBucket{Lo: bucketLo(i), Count: c})
		}
	}
	return out
}

// Mean returns the average sample, or 0 when empty.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets: the
// geometric midpoint of the bucket holding the q-th sample, clamped to
// the observed min/max. Log buckets bound the relative error by 2x,
// which is the right fidelity for "where does the time go" questions.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(s.Min)
	}
	if q >= 1 {
		return float64(s.Max)
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			lo := float64(b.Lo)
			hi := 2 * lo
			if b.Lo == 0 {
				return clampQ(0, s)
			}
			return clampQ(math.Sqrt(lo*hi), s)
		}
	}
	return float64(s.Max)
}

func clampQ(v float64, s HistSnapshot) float64 {
	if v < float64(s.Min) {
		return float64(s.Min)
	}
	if v > float64(s.Max) {
		return float64(s.Max)
	}
	return v
}
