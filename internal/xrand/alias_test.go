package xrand

import (
	"math"
	"slices"
	"testing"
)

func TestNewAliasRejectsBadWeights(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -1}},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{1, math.Inf(1)}},
		{"all-zero", []float64{0, 0, 0}},
		{"overflowing-sum", []float64{1e308, 1e308, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := NewAlias(c.weights); err == nil {
				t.Fatalf("weights %v accepted", c.weights)
			}
		})
	}
}

// TestAliasFrequencies checks the sampled empirical distribution against
// the construction weights, including a zero-weight column that must
// never be drawn.
func TestAliasFrequencies(t *testing.T) {
	weights := []float64{1, 3, 0, 6, 2}
	a, err := NewAlias(slices.Clone(weights)) // NewAlias scales its slice in place
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != len(weights) {
		t.Fatalf("N() = %d", a.N())
	}
	r := New(7)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / sum
		if w == 0 && counts[i] != 0 {
			t.Fatalf("zero-weight column %d drawn %d times", i, counts[i])
		}
		if math.Abs(got-want) > 0.01 {
			t.Errorf("column %d: frequency %.4f, want %.4f", i, got, want)
		}
	}
}

// TestAliasSingleColumn — a one-column table always returns 0.
func TestAliasSingleColumn(t *testing.T) {
	a, err := NewAlias([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	for i := 0; i < 100; i++ {
		if got := a.Sample(r); got != 0 {
			t.Fatalf("sample %d", got)
		}
	}
}

// TestAliasDeterministicDrawCount — Sample consumes exactly two draws
// (one Intn, one Float64), so generator positions stay reproducible.
func TestAliasDeterministicDrawCount(t *testing.T) {
	a, err := NewAlias([]float64{2, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	r1 := New(9)
	r2 := New(9)
	for i := 0; i < 1000; i++ {
		a.Sample(r1)
		r2.Intn(3)
		r2.Float64()
	}
	for i := 0; i < 8; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("draw-count drift at check %d", i)
		}
	}
}

// TestAliasTableReplaysSample — driving the exposed table columns with
// the same Intn + Float64 draw sequence Sample makes must reproduce
// Sample's outputs exactly, so monomorphized kernels can bypass the
// method without changing any stream.
func TestAliasTableReplaysSample(t *testing.T) {
	a, err := NewAlias([]float64{3, 0, 1, 5, 2})
	if err != nil {
		t.Fatal(err)
	}
	prob, alias := a.Table()
	if len(prob) != a.N() || len(alias) != a.N() {
		t.Fatalf("table lengths %d, %d, want %d", len(prob), len(alias), a.N())
	}
	rSample, rTable := New(17), New(17)
	for i := 0; i < 5000; i++ {
		want := a.Sample(rSample)
		col := rTable.Intn(len(prob))
		got := col
		if rTable.Float64() >= prob[col] {
			got = int(alias[col])
		}
		if got != want {
			t.Fatalf("draw %d: table replay %d, Sample %d", i, got, want)
		}
	}
}

// TestNewAliasAdoptsWeights — a valid slice becomes the table's prob
// column, scaled in place with no copy; a refused one is left exactly
// as the caller passed it.
func TestNewAliasAdoptsWeights(t *testing.T) {
	weights := []float64{3, 0, 1, 5, 2}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	if prob, _ := a.Table(); &prob[0] != &weights[0] || len(prob) != len(weights) {
		t.Fatal("NewAlias copied its weights instead of adopting them")
	}
	for _, bad := range [][]float64{
		{1, 2, math.NaN()},
		{4, -1, 2},
		{0, 0, 0},
		{math.MaxFloat64, math.MaxFloat64},
	} {
		keep := slices.Clone(bad)
		if _, err := NewAlias(bad); err == nil {
			t.Fatalf("weights %v accepted", keep)
		}
		for i := range bad {
			if math.Float64bits(bad[i]) != math.Float64bits(keep[i]) {
				t.Fatalf("refused weights %v were written: %v", keep, bad)
			}
		}
	}
}
