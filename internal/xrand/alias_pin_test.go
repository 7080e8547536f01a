package xrand_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"popgraph/internal/graph"
	"popgraph/internal/xrand"
)

// aliasPins lists fixed weight vectors whose tables are pinned: the
// weighted:exp rates at scale, a graph's degrees (the node-clock
// scheduler's weights), and the edge cases of the pairing loop.
var aliasPins = []struct {
	name    string
	weights func() []float64
}{
	{"exp-100000", func() []float64 { return expWeights(100000, 2022) }},
	{"degrees-ws:20000:10:0.1", func() []float64 {
		g, err := graph.WattsStrogatz(20000, 10, 0.1, xrand.New(1))
		if err != nil {
			panic(err)
		}
		deg := make([]float64, g.N())
		for v := range deg {
			deg[v] = float64(g.Degree(v))
		}
		return deg
	}},
	{"equal-1000", func() []float64 {
		w := make([]float64, 1000)
		for i := range w {
			w[i] = 3
		}
		return w
	}},
	{"zeros-interleaved", func() []float64 {
		w := make([]float64, 999)
		for i := range w {
			if i%2 == 1 {
				w[i] = float64(i%7) + 0.5
			}
		}
		return w
	}},
	{"one-huge", func() []float64 {
		w := make([]float64, 500)
		for i := range w {
			w[i] = 1
		}
		w[137] = 1e300
		return w
	}},
	{"single", func() []float64 { return []float64{42} }},
}

// goldenAliasPins holds, per weight vector, the first 16 hex digits of
// SHA-256 over the table's prob column (little-endian float64 bits)
// followed by its alias column (little-endian int32). Recorded on the
// stack implementation kept below as voseStacks; any change to a
// column's bits changes the line, and with it every weighted and
// node-clock record.
const goldenAliasPins = `exp-100000 66a600427cec0b3e
degrees-ws:20000:10:0.1 d99c49cbccb3f8c7
equal-1000 d88a5115abbe33fa
zeros-interleaved 1c08fcc47554d1e6
one-huge ade0684564381ef8
single 3d61ebb3d72a9499
`

func expWeights(n int, seed uint64) []float64 {
	r := xrand.New(seed)
	w := make([]float64, n)
	for i := range w {
		w[i] = -math.Log(1 - r.Float64())
	}
	return w
}

func aliasDigest(prob []float64, alias []int32) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range prob {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	for _, a := range alias {
		binary.LittleEndian.PutUint32(buf[:4], uint32(a))
		h.Write(buf[:4])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestAliasPins(t *testing.T) {
	var got string
	for _, c := range aliasPins {
		a, err := xrand.NewAlias(c.weights())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got += fmt.Sprintf("%s %s\n", c.name, aliasDigest(a.Table()))
	}
	if got != goldenAliasPins {
		t.Errorf("alias tables changed:\n got:\n%s\nwant:\n%s", got, goldenAliasPins)
	}
}

// voseStacks is the table construction NewAlias replaced: Vose's method
// with a scaled copy of the weights and separate small and large
// stacks. It is the oracle for NewAlias's in-place version, which must
// push and pop in the same order and so produce the same bits.
func voseStacks(weights []float64) (prob []float64, alias []int32) {
	n := len(weights)
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	prob, alias = make([]float64, n), make([]int32, n)
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w / sum * float64(n)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		prob[s] = scaled[s]
		alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		prob[i] = 1
		alias[i] = i
	}
	for _, i := range small {
		prob[i] = 1
		alias[i] = i
	}
	return prob, alias
}

// TestAliasMatchesStacks compares NewAlias bit for bit with voseStacks
// on the pinned vectors and on random ones: exponential, integer-valued
// (many exact ties at 1), sparse, and heavy-tailed.
func TestAliasMatchesStacks(t *testing.T) {
	type vec struct {
		name    string
		weights []float64
	}
	var vecs []vec
	for _, c := range aliasPins {
		vecs = append(vecs, vec{c.name, c.weights()})
	}
	r := xrand.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		w := make([]float64, n)
		for i := range w {
			switch trial % 4 {
			case 0:
				w[i] = -math.Log(1 - r.Float64())
			case 1:
				w[i] = float64(r.Intn(4))
			case 2:
				if r.Intn(10) == 0 {
					w[i] = r.Float64()
				}
			case 3:
				w[i] = math.Pow(10, 12*r.Float64())
			}
		}
		w[r.Intn(n)] = 1 // a positive sum
		vecs = append(vecs, vec{fmt.Sprintf("random-%d", trial), w})
	}
	for _, v := range vecs {
		// NewAlias scales its slice in place, so hand it a copy.
		a, err := xrand.NewAlias(slices.Clone(v.weights))
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		prob, alias := a.Table()
		wantProb, wantAlias := voseStacks(v.weights)
		for i := range wantProb {
			if math.Float64bits(prob[i]) != math.Float64bits(wantProb[i]) || alias[i] != wantAlias[i] {
				t.Fatalf("%s: column %d is (%v, %d), stack method gives (%v, %d)",
					v.name, i, prob[i], alias[i], wantProb[i], wantAlias[i])
			}
		}
	}
}

// FuzzNewAlias decodes a weight vector from byte pairs (kind, value):
// a zero, a one, a small integer (exact ties at 1 once scaled), or
// 10^(300·value/255), so weight ratios reach 1e300. NewAlias must build
// the table voseStacks builds, bit for bit, and refuse only an all-zero
// vector.
func FuzzNewAlias(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 1, 0})           // all equal: every column ties at 1
	f.Add([]byte{0, 0, 2, 2, 2, 1, 1, 0})     // zeros and integers
	f.Add([]byte{3, 255, 3, 0, 0, 0, 3, 128}) // ratio 1e300
	f.Add([]byte{0, 0, 0, 0})                 // no positive weight
	f.Fuzz(func(t *testing.T, data []byte) {
		w := make([]float64, len(data)/2)
		for i := range w {
			switch v := data[2*i+1]; data[2*i] % 4 {
			case 1:
				w[i] = 1
			case 2:
				w[i] = float64(v % 5)
			case 3:
				w[i] = math.Pow(10, 300*float64(v)/255)
			}
		}
		a, err := xrand.NewAlias(slices.Clone(w))
		if err != nil {
			if slices.ContainsFunc(w, func(x float64) bool { return x > 0 }) {
				t.Fatalf("weights %v: %v", w, err)
			}
			return
		}
		prob, alias := a.Table()
		wantProb, wantAlias := voseStacks(w)
		for i := range wantProb {
			if math.Float64bits(prob[i]) != math.Float64bits(wantProb[i]) || alias[i] != wantAlias[i] {
				t.Fatalf("weights %v: column %d is (%v, %d), stack method gives (%v, %d)",
					w, i, prob[i], alias[i], wantProb[i], wantAlias[i])
			}
		}
	})
}
