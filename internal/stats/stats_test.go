package stats

import (
	"math"
	"testing"
	"testing/quick"

	"popgraph/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("bad summary: %+v", s)
	}
	if !almost(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
	if s.CI95() <= 0 {
		t.Fatalf("ci = %v", s.CI95())
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Std != 0 || s.CI95() != 0 || s.Median != 7 {
		t.Fatalf("bad single summary: %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestMeanMax(t *testing.T) {
	if Mean([]float64{2, 4, 9}) != 5 {
		t.Fatal("mean")
	}
	if Summarize([]float64{2, 9, 4}).Max != 9 {
		t.Fatal("max")
	}
}

func TestHarmonic(t *testing.T) {
	if Harmonic(0) != 0 || Harmonic(1) != 1 {
		t.Fatal("base cases")
	}
	if !almost(Harmonic(4), 1+0.5+1.0/3+0.25, 1e-12) {
		t.Fatalf("H_4 = %v", Harmonic(4))
	}
	// Asymptotic branch must agree with direct summation.
	direct := 0.0
	for i := 1; i <= 1000; i++ {
		direct += 1 / float64(i)
	}
	if !almost(Harmonic(1000), direct, 1e-9) {
		t.Fatalf("H_1000 = %v, want %v", Harmonic(1000), direct)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if !almost(a, 3, 1e-9) || !almost(b, 2, 1e-9) || !almost(r2, 1, 1e-9) {
		t.Fatalf("fit: a=%v b=%v r2=%v", a, b, r2)
	}
}

func TestLinearFitNoisy(t *testing.T) {
	r := xrand.New(3)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 1 + 0.5*xs[i] + (r.Float64() - 0.5)
	}
	_, b, r2 := LinearFit(xs, ys)
	if !almost(b, 0.5, 0.01) {
		t.Fatalf("slope = %v", b)
	}
	if r2 < 0.99 {
		t.Fatalf("r2 = %v", r2)
	}
}

func TestLogLogSlopeRecoversExponent(t *testing.T) {
	f := func(scale uint8) bool {
		k := 1 + float64(scale%4) // exponents 1..4
		xs := []float64{64, 128, 256, 512, 1024}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3.7 * math.Pow(x, k)
		}
		slope, r2 := LogLogSlope(xs, ys)
		return almost(slope, k, 1e-9) && almost(r2, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLogLogSlopePanicsOnNonpositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LogLogSlope([]float64{1, 0}, []float64{1, 2})
}
