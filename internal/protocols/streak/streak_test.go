package streak

import (
	"math"
	"testing"

	"popgraph/internal/xrand"
)

func TestClockBasics(t *testing.T) {
	c := NewClock(3, 4)
	if c.H() != 3 || c.States() != 4 {
		t.Fatalf("h=%d states=%d", c.H(), c.States())
	}
	// Node 0 initiates three times in a row: completes exactly at the third.
	if c.Tick(0, 1) || c.Tick(0, 2) {
		t.Fatal("premature completion")
	}
	if !c.Tick(0, 1) {
		t.Fatal("expected completion at streak length 3")
	}
	if c.streak[0] != 0 {
		t.Fatal("counter must reset after completion")
	}
}

func TestResponderResetsStreak(t *testing.T) {
	c := NewClock(2, 3)
	c.Tick(0, 1) // node 0 at streak 1
	c.Tick(2, 0) // node 0 responds: reset
	if c.streak[0] != 0 {
		t.Fatal("responder streak not reset")
	}
	c.Tick(0, 1)
	if !c.Tick(0, 1) {
		t.Fatal("fresh streak of 2 should complete")
	}
}

func TestClockReset(t *testing.T) {
	c := NewClock(5, 2)
	c.Tick(0, 1)
	c.Tick(0, 1)
	c.Reset()
	if c.streak[0] != 0 || c.streak[1] != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestNewClockValidation(t *testing.T) {
	for _, h := range []int{0, -1, 61} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("h=%d: expected panic", h)
				}
			}()
			NewClock(h, 1)
		}()
	}
}

// TestExpectedKFormula verifies Lemma 27a closed form against simulation:
// E[K] = 2^{h+1} − 2.
func TestExpectedKFormula(t *testing.T) {
	r := xrand.New(8)
	for _, h := range []int{1, 2, 3, 5} {
		want := ExpectedK(h)
		const trials = 60000
		var sum int64
		for i := 0; i < trials; i++ {
			sum += SampleK(h, r)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-want) > 0.05*want {
			t.Errorf("h=%d: E[K] measured %v, formula %v", h, mean, want)
		}
	}
}

// TestLemma26Domination checks Geom(2^{-h}) ⪯ K ⪯ Geom(2^{-h-1}) + h at a
// few tail points by comparing empirical tail probabilities against the
// closed-form geometric tails with generous slack.
func TestLemma26Domination(t *testing.T) {
	r := xrand.New(10)
	const h = 3
	const trials = 40000
	samples := make([]int64, trials)
	for i := range samples {
		samples[i] = SampleK(h, r)
	}
	tail := func(k int64) float64 {
		count := 0
		for _, s := range samples {
			if s >= k {
				count++
			}
		}
		return float64(count) / trials
	}
	for _, k := range []int64{8, 16, 32, 64} {
		lower := math.Pow(1-1.0/(1<<h), float64(k))       // P[Geom(2^-h) >= k]... lower bound on tail
		upper := math.Pow(1-1.0/(1<<(h+1)), float64(k-h)) // P[Geom(2^-h-1)+h >= k]
		got := tail(k)
		slack := 0.02
		if got < lower-slack || got > upper+slack {
			t.Errorf("k=%d: tail %v outside [%v, %v]", k, got, lower, upper)
		}
	}
}

// TestExpectedXFormula verifies Lemma 27b: E[X(d)] = E[K]·m/d.
func TestExpectedXFormula(t *testing.T) {
	r := xrand.New(12)
	const h, m = 2, 40
	for _, d := range []int{1, 4, 10, 40} {
		want := ExpectedX(h, d, m)
		const trials = 30000
		var sum int64
		for i := 0; i < trials; i++ {
			sum += SampleX(h, d, m, r)
		}
		mean := float64(sum) / trials
		if math.Abs(mean-want) > 0.06*want {
			t.Errorf("d=%d: E[X] measured %v, formula %v", d, mean, want)
		}
	}
}

// TestSampleRMean verifies E[R] = ℓ·E[K] (Lemma 28a).
func TestSampleRMean(t *testing.T) {
	r := xrand.New(14)
	const h, ell = 3, 20
	want := float64(ell) * ExpectedK(h)
	const trials = 4000
	var sum int64
	for i := 0; i < trials; i++ {
		sum += SampleR(h, ell, r)
	}
	mean := float64(sum) / trials
	if math.Abs(mean-want) > 0.05*want {
		t.Errorf("E[R] measured %v, want %v", mean, want)
	}
}

// TestRConcentration exercises Lemma 28b/c qualitatively: for ℓ ≥ ln n,
// R concentrates within [E[R]/2, 4·E[R]] with overwhelming probability.
func TestRConcentration(t *testing.T) {
	r := xrand.New(18)
	const h, ell = 3, 12 // ell >= ln n for n up to e^12
	want := float64(ell) * ExpectedK(h)
	const trials = 3000
	outside := 0
	for i := 0; i < trials; i++ {
		v := float64(SampleR(h, ell, r))
		if v <= want/2 || v >= 4*want {
			outside++
		}
	}
	if frac := float64(outside) / trials; frac > 0.02 {
		t.Errorf("R escaped [E[R]/2, 4E[R]] in %v of runs", frac)
	}
}

func TestSampleXValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleX(2, 5, 3, xrand.New(1)) // d > m
}

func BenchmarkTick(b *testing.B) {
	c := NewClock(8, 1024)
	r := xrand.New(1)
	for i := 0; i < b.N; i++ {
		c.Tick(r.Intn(1024), r.Intn(1024))
	}
}

// H returns the streak length parameter.
func (c *Clock) H() int { return c.h }

// States returns the number of local states, h+1.
func (c *Clock) States() int { return c.h + 1 }
