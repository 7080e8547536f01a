package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for distinct seeds collided %d/100 times", same)
	}
}

func TestUintnRange(t *testing.T) {
	r := New(3)
	f := func(n uint64) bool {
		if n == 0 {
			return true
		}
		v := r.Uintn(n)
		return v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uintn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-ish sanity check: 10 buckets, 100k samples.
	r := New(11)
	const buckets, samples = 10, 100000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(samples) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestBoolFair(t *testing.T) {
	r := New(9)
	heads := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bool() {
			heads++
		}
	}
	if math.Abs(float64(heads)-trials/2) > 4*math.Sqrt(trials/4) {
		t.Fatalf("Bool badly biased: %d heads of %d", heads, trials)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(19)
	for _, p := range []float64{1, 0.5, 0.1, 0.01} {
		const trials = 50000
		var sum int64
		for i := 0; i < trials; i++ {
			g := r.Geometric(p)
			if g < 1 {
				t.Fatalf("Geometric(%v) returned %d < 1", p, g)
			}
			sum += g
		}
		mean := float64(sum) / trials
		want := 1 / p
		if math.Abs(mean-want) > 0.05*want+0.01 {
			t.Errorf("Geometric(%v): mean %v, want ~%v", p, mean, want)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for p=%v", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestBinomialMean(t *testing.T) {
	r := New(29)
	cases := []struct {
		n int64
		p float64
	}{{100, 0.5}, {1000, 0.01}, {50, 0.9}, {10, 0}, {10, 1}}
	for _, c := range cases {
		const trials = 20000
		var sum int64
		for i := 0; i < trials; i++ {
			v := r.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d,%v) out of range: %d", c.n, c.p, v)
			}
			sum += v
		}
		mean := float64(sum) / trials
		want := float64(c.n) * c.p
		if math.Abs(mean-want) > 0.05*want+0.2 {
			t.Errorf("Binomial(%d,%v): mean %v, want %v", c.n, c.p, mean, want)
		}
	}
}

func TestFillMatchesUint64Stream(t *testing.T) {
	for _, size := range []int{1, 7, 64, 513} {
		a, b := New(31), New(31)
		buf := make([]uint64, size)
		a.Fill(buf)
		for i, v := range buf {
			if want := b.Uint64(); v != want {
				t.Fatalf("Fill(%d)[%d] = %d, want %d", size, i, v, want)
			}
		}
		// The states must agree afterwards, too.
		if a.Save() != b.Save() {
			t.Fatalf("Fill(%d) left a different state than %d Uint64 calls", size, size)
		}
	}
}

func TestSaveRestore(t *testing.T) {
	r := New(37)
	r.Skip(100)
	s := r.Save()
	first := make([]uint64, 32)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Restore(s)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("replay diverged at %d: %d != %d", i, got, first[i])
		}
	}
}

func TestSkipMatchesDiscardedDraws(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000} {
		a, b := New(41), New(41)
		a.Skip(n)
		for i := 0; i < n; i++ {
			b.Uint64()
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Skip(%d) landed on a different stream position", n)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkUintn(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uintn(12345)
	}
	_ = sink
}

func BenchmarkFill(b *testing.B) {
	r := New(1)
	buf := make([]uint64, 512)
	b.SetBytes(512 * 8)
	for i := 0; i < b.N; i++ {
		r.Fill(buf)
	}
}

// TestFloat64FromMatchesFloat64 — converting a prefetched Uint64 with
// Float64From must give the exact float a live Float64 call would have
// produced for the same stream position — the property the simulator's
// block kernels rely on for byte-identical drop and alias decisions.
func TestFloat64FromMatchesFloat64(t *testing.T) {
	a, b := New(91), New(91)
	buf := make([]uint64, 257)
	a.Fill(buf)
	for i, x := range buf {
		if got, want := Float64From(x), b.Float64(); got != want {
			t.Fatalf("draw %d: Float64From = %v, Float64 = %v", i, got, want)
		}
	}
}
