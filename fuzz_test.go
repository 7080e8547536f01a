package popgraph_test

import (
	"strconv"
	"strings"
	"testing"

	"popgraph"
)

// FuzzParseScheduler feeds arbitrary spec strings to ParseScheduler
// over a fixed torus:4x4, so no input can claim a size. Every input
// must come back as a named scheduler or as an error quoting the spec:
// never a panic. The seed corpus in testdata/fuzz/FuzzParseScheduler
// holds every valid spec form and a few malformed ones.
func FuzzParseScheduler(f *testing.F) {
	g := popgraph.Torus(4, 4)
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := popgraph.ParseScheduler(spec, g, popgraph.NewRand(1))
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(spec)) {
				t.Fatalf("spec %q: error %q does not quote the spec", spec, err)
			}
			return
		}
		if s == nil || s.Name() == "" {
			t.Fatalf("spec %q: accepted without a named scheduler", spec)
		}
	})
}

// FuzzProtocolFactory feeds arbitrary spec strings to ProtocolFactory
// over a fixed torus:4x4, so no input can claim a size. Every input must
// come back as a factory whose product is non-nil or as an error quoting
// the spec: never a panic. The seed corpus in
// testdata/fuzz/FuzzProtocolFactory holds every valid spec form and a
// few malformed ones.
func FuzzProtocolFactory(f *testing.F) {
	g := popgraph.Torus(4, 4)
	f.Fuzz(func(t *testing.T, spec string) {
		factory, err := popgraph.ProtocolFactory(spec, g, popgraph.NewRand(1))
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(spec)) {
				t.Fatalf("spec %q: error %q does not quote the spec", spec, err)
			}
			return
		}
		if factory == nil || factory() == nil {
			t.Fatalf("spec %q: accepted without a factory that builds a protocol", spec)
		}
	})
}
