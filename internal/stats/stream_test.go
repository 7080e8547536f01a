package stats

import (
	"math"
	"testing"

	"popgraph/internal/xrand"
)

// close2 reports approximate equality with relative tolerance tol
// (absolute near zero).
func close2(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= tol*scale
}

// streamOf feeds xs through a single Stream in order.
func streamOf(xs []float64) Stream {
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// Collapsed reports whether the sketch has switched from exact storage
// to bucket counts.
func (q QSketch) Collapsed() bool { return q.buckets != nil }

// samples draws n deterministic values in [0, span) plus a few repeats
// and exact zeros, the shapes step counts take.
func samples(seed uint64, n int, span float64) []float64 {
	r := xrand.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		switch i % 7 {
		case 3:
			xs[i] = 0
		case 5:
			xs[i] = 1024 // repeated exact value
		default:
			xs[i] = math.Floor(r.Float64() * span)
		}
	}
	return xs
}

// TestStreamMatchesSummarize — while the sketch is exact (n ≤
// SketchExactCap), Stream.Summary agrees with the two-pass Summarize:
// bit-equal N/Min/Max/Median, float-tolerance Mean/Std (Welford vs
// two-pass rounding).
func TestStreamMatchesSummarize(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, SketchExactCap} {
		xs := samples(uint64(n), n, 1e6)
		got := streamOf(xs).Summary()
		want := Summarize(xs)
		if got.N != want.N || got.Min != want.Min || got.Max != want.Max || got.Median != want.Median {
			t.Fatalf("n=%d: exact fields diverge: got %+v want %+v", n, got, want)
		}
		if !close2(got.Mean, want.Mean, 1e-12) || !close2(got.Std, want.Std, 1e-9) {
			t.Fatalf("n=%d: mean/std diverge: got %+v want %+v", n, got, want)
		}
	}
}

// TestSketchCollapseBounds — past the exact capacity the sketch
// collapses, and bucketed quantiles stay within the documented relative
// error of the exact order statistics.
func TestSketchCollapseBounds(t *testing.T) {
	n := 3000
	xs := samples(99, n, 1e7)
	s := streamOf(xs)
	if !s.Sketch.Collapsed() {
		t.Fatalf("sketch not collapsed at n=%d", n)
	}
	if s.Sketch.N() != int64(n) {
		t.Fatalf("sketch count %d, want %d", s.Sketch.N(), n)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		exact := Quantile(xs, q)
		got := s.Quantile(q)
		// One bucket of slack on either side of the true order statistic.
		tol := 2.0 / SketchSubBuckets
		if !close2(got, exact, tol) {
			t.Fatalf("quantile %v: sketch %v vs exact %v (tol %v)", q, got, exact, tol)
		}
	}
	// Negative and zero samples take the mirrored/zero buckets.
	var neg Stream
	for _, x := range []float64{-8, -1, 0, 0, 2, 16} {
		neg.Add(x)
	}
	big := neg
	for i := 0; i < SketchExactCap; i++ {
		big.Add(float64(i - 100))
	}
	if !big.Sketch.Collapsed() {
		t.Fatal("mixed-sign sketch did not collapse")
	}
	if big.Quantile(0) > big.Quantile(1) {
		t.Fatal("bucketed quantiles not monotone over mixed signs")
	}
}
