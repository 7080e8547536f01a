package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"popgraph/internal/xrand"
)

// generatorPins lists every generator family at several sizes. Random
// families also vary their parameters (β for Watts–Strogatz) and cover
// the wrap-around lattices ws:5:2:1 and ws:7:6:1, where a lattice pair's
// smaller endpoint is not its lattice source.
var generatorPins = []struct {
	spec  string
	build func(r *xrand.Rand) (*Dense, error)
}{
	{"cycle:3", func(*xrand.Rand) (*Dense, error) { return Cycle(3), nil }},
	{"cycle:1000", func(*xrand.Rand) (*Dense, error) { return Cycle(1000), nil }},
	{"path:2", func(*xrand.Rand) (*Dense, error) { return Path(2), nil }},
	{"path:257", func(*xrand.Rand) (*Dense, error) { return Path(257), nil }},
	{"star:2", func(*xrand.Rand) (*Dense, error) { return Star(2), nil }},
	{"star:100", func(*xrand.Rand) (*Dense, error) { return Star(100), nil }},
	{"torus:3x3", func(*xrand.Rand) (*Dense, error) { return Torus2D(3, 3), nil }},
	{"torus:5x7", func(*xrand.Rand) (*Dense, error) { return Torus2D(5, 7), nil }},
	{"torus:64x64", func(*xrand.Rand) (*Dense, error) { return Torus2D(64, 64), nil }},
	{"grid:1x2", func(*xrand.Rand) (*Dense, error) { return Grid2D(1, 2), nil }},
	{"grid:4x9", func(*xrand.Rand) (*Dense, error) { return Grid2D(4, 9), nil }},
	{"grid:50x40", func(*xrand.Rand) (*Dense, error) { return Grid2D(50, 40), nil }},
	{"hypercube:1", func(*xrand.Rand) (*Dense, error) { return Hypercube(1), nil }},
	{"hypercube:4", func(*xrand.Rand) (*Dense, error) { return Hypercube(4), nil }},
	{"hypercube:12", func(*xrand.Rand) (*Dense, error) { return Hypercube(12), nil }},
	{"lollipop:2:1", func(*xrand.Rand) (*Dense, error) { return Lollipop(2, 1), nil }},
	{"lollipop:8:5", func(*xrand.Rand) (*Dense, error) { return Lollipop(8, 5), nil }},
	{"lollipop:64:64", func(*xrand.Rand) (*Dense, error) { return Lollipop(64, 64), nil }},
	{"barbell:2:0", func(*xrand.Rand) (*Dense, error) { return Barbell(2, 0), nil }},
	{"barbell:5:3", func(*xrand.Rand) (*Dense, error) { return Barbell(5, 3), nil }},
	{"barbell:32:32", func(*xrand.Rand) (*Dense, error) { return Barbell(32, 32), nil }},
	{"gnp:8:1", func(r *xrand.Rand) (*Dense, error) { return Gnp(8, 1, r) }},
	{"gnp:30:0.3", func(r *xrand.Rand) (*Dense, error) { return Gnp(30, 0.3, r) }},
	{"gnp:500:0.02", func(r *xrand.Rand) (*Dense, error) { return Gnp(500, 0.02, r) }},
	{"regular:4:3", func(r *xrand.Rand) (*Dense, error) { return RandomRegular(4, 3, r) }},
	{"regular:50:3", func(r *xrand.Rand) (*Dense, error) { return RandomRegular(50, 3, r) }},
	{"regular:2000:6", func(r *xrand.Rand) (*Dense, error) { return RandomRegular(2000, 6, r) }},
	{"ba:5:1", func(r *xrand.Rand) (*Dense, error) { return BarabasiAlbert(5, 1, r) }},
	{"ba:100:3", func(r *xrand.Rand) (*Dense, error) { return BarabasiAlbert(100, 3, r) }},
	{"ba:2000:5", func(r *xrand.Rand) (*Dense, error) { return BarabasiAlbert(2000, 5, r) }},
	{"ws:5:2:1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(5, 2, 1, r) }},
	{"ws:7:6:1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(7, 6, 1, r) }},
	{"ws:9:4:0.5", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(9, 4, 0.5, r) }},
	{"ws:100:6:0", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(100, 6, 0, r) }},
	{"ws:100:6:0.1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(100, 6, 0.1, r) }},
	{"ws:100:6:1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(100, 6, 1, r) }},
	{"ws:20000:10:0.1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(20000, 10, 0.1, r) }},
	{"ws:3000:8:1", func(r *xrand.Rand) (*Dense, error) { return WattsStrogatz(3000, 8, 1, r) }},
}

// goldenGeneratorPins holds, per generator and seed, the first 16 hex
// digits of SHA-256 over the little-endian PackedEdges followed by the
// generator's next Uint64 after the build. A change to any edge, to the
// order of the RNG draws or to their count changes the line.
const goldenGeneratorPins = `cycle:3 seed=1 7954ab0a6e962ca6
cycle:3 seed=7 a23254808cf8738e
cycle:3 seed=2022 db94d1b5582f59e8
cycle:1000 seed=1 eb98c068059d5b9a
cycle:1000 seed=7 116595ebbf77f7cf
cycle:1000 seed=2022 5494bf88e6ab868b
path:2 seed=1 9151cd84f7443761
path:2 seed=7 852e42888693fec5
path:2 seed=2022 c494c52499d67982
path:257 seed=1 7ab21d3b89de15d4
path:257 seed=7 2388a1bfdda3bc1f
path:257 seed=2022 dda66b14d0697496
star:2 seed=1 9151cd84f7443761
star:2 seed=7 852e42888693fec5
star:2 seed=2022 c494c52499d67982
star:100 seed=1 a5a47fe23bea011e
star:100 seed=7 06b3006f12f2108a
star:100 seed=2022 7568620ffbd4daba
torus:3x3 seed=1 8051aec6db63864c
torus:3x3 seed=7 c76a702e7fc7ace5
torus:3x3 seed=2022 910af23a8b0b0bd1
torus:5x7 seed=1 00d2419e40142f60
torus:5x7 seed=7 3ed0583250a52a97
torus:5x7 seed=2022 7b2b67c478a8f0f3
torus:64x64 seed=1 afb9d4a833585e32
torus:64x64 seed=7 f19905e30d69b7e9
torus:64x64 seed=2022 0105d5e1b7ab817f
grid:1x2 seed=1 9151cd84f7443761
grid:1x2 seed=7 852e42888693fec5
grid:1x2 seed=2022 c494c52499d67982
grid:4x9 seed=1 3bc012968d3805cd
grid:4x9 seed=7 83467cbab116ca3d
grid:4x9 seed=2022 3eb53c28d122c976
grid:50x40 seed=1 99d6e3286a998028
grid:50x40 seed=7 cf1f3b542ebf404b
grid:50x40 seed=2022 28792959bec01082
hypercube:1 seed=1 9151cd84f7443761
hypercube:1 seed=7 852e42888693fec5
hypercube:1 seed=2022 c494c52499d67982
hypercube:4 seed=1 06d163252cdf4f87
hypercube:4 seed=7 1b21209e7df1e81b
hypercube:4 seed=2022 44f5aa19a7f0ffb9
hypercube:12 seed=1 5a906c0db54a9281
hypercube:12 seed=7 5359c67467c5e3e4
hypercube:12 seed=2022 340aa896664a5cf8
lollipop:2:1 seed=1 67fa0ba33f4786b5
lollipop:2:1 seed=7 56f42dcecb949fa4
lollipop:2:1 seed=2022 a7900990b2e731dd
lollipop:8:5 seed=1 a8c6b2792d9f965c
lollipop:8:5 seed=7 4580fe4d90bf40c1
lollipop:8:5 seed=2022 69693e1f60a1799b
lollipop:64:64 seed=1 349c5d8b4d9cfd62
lollipop:64:64 seed=7 130f63723a740872
lollipop:64:64 seed=2022 1236af9f56c4c4fc
barbell:2:0 seed=1 58ff36ac86a7fa8f
barbell:2:0 seed=7 b44aea34180f9863
barbell:2:0 seed=2022 c681cc32eeeb46f7
barbell:5:3 seed=1 5899c1ef5ba7bc6b
barbell:5:3 seed=7 aca1d177f8509fa0
barbell:5:3 seed=2022 cf7a97bf8b1de414
barbell:32:32 seed=1 6e28e082eb12f559
barbell:32:32 seed=7 ac0a2f10eb011dc1
barbell:32:32 seed=2022 e26444bba134affe
gnp:8:1 seed=1 919341083146c974
gnp:8:1 seed=7 5fb59322288e7f86
gnp:8:1 seed=2022 0f15c38de804a810
gnp:30:0.3 seed=1 bc3507e2b8a22a58
gnp:30:0.3 seed=7 e992b5738b3f80ab
gnp:30:0.3 seed=2022 28f81d704082b061
gnp:500:0.02 seed=1 dceaa8cf3abcdccb
gnp:500:0.02 seed=7 da26965a81bed9f5
gnp:500:0.02 seed=2022 0e87f4280fa3cc1f
regular:4:3 seed=1 ffd8688abcad122a
regular:4:3 seed=7 f29fb49581222124
regular:4:3 seed=2022 3681b86ae39aa3d0
regular:50:3 seed=1 82e0a82234aff844
regular:50:3 seed=7 e42c2e3bfe5bfc07
regular:50:3 seed=2022 ba446327c43aa3e9
regular:2000:6 seed=1 9a249e30aa887387
regular:2000:6 seed=7 150137440773276b
regular:2000:6 seed=2022 5defba4515742d13
ba:5:1 seed=1 cd11bc62dbbe1d51
ba:5:1 seed=7 acd51affc1e5acf6
ba:5:1 seed=2022 1b2943592f61684b
ba:100:3 seed=1 379394b8f336a348
ba:100:3 seed=7 07c1811000cbaab1
ba:100:3 seed=2022 cabc43bbf1132b63
ba:2000:5 seed=1 aaef9e8d1a050b45
ba:2000:5 seed=7 801aea0977e2d677
ba:2000:5 seed=2022 6209afc699e7538e
ws:5:2:1 seed=1 7d0fe26e9b096d68
ws:5:2:1 seed=7 53915ecee925a1eb
ws:5:2:1 seed=2022 08f6695935ae332d
ws:7:6:1 seed=1 9a30e715076421d3
ws:7:6:1 seed=7 40a42db5c303092c
ws:7:6:1 seed=2022 950cffd9ab04d341
ws:9:4:0.5 seed=1 e2e42d2f87fe9966
ws:9:4:0.5 seed=7 7659ac6e1a6b6542
ws:9:4:0.5 seed=2022 c21d1ab2120e7d78
ws:100:6:0 seed=1 19b5268c3d3c76ff
ws:100:6:0 seed=7 adb6b47285ae80e2
ws:100:6:0 seed=2022 be8101d70c4bba61
ws:100:6:0.1 seed=1 dc0448ac8aed4483
ws:100:6:0.1 seed=7 55adcb2a6385fbd5
ws:100:6:0.1 seed=2022 3671a6621a88a9f9
ws:100:6:1 seed=1 980ddb860aa78368
ws:100:6:1 seed=7 e88e1abae5bf1a45
ws:100:6:1 seed=2022 685ec0ed46b39fa4
ws:20000:10:0.1 seed=1 d04dfffea6ffbb88
ws:20000:10:0.1 seed=7 0df227cfb436d617
ws:20000:10:0.1 seed=2022 8e9e7a02772104f0
ws:3000:8:1 seed=1 3dd009b71ba1895f
ws:3000:8:1 seed=7 54d1dc3ddcb104ad
ws:3000:8:1 seed=2022 aec9c86a17fb0905
`

// TestGeneratorPins pins every generator's output and post-build RNG
// state, so construction speedups must keep graphs byte-identical.
func TestGeneratorPins(t *testing.T) {
	var out strings.Builder
	for _, p := range generatorPins {
		for _, seed := range []uint64{1, 7, 2022} {
			r := xrand.New(seed)
			g, err := p.build(r)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", p.spec, seed, err)
			}
			h := sha256.New()
			buf := make([]byte, 8)
			for _, e := range g.PackedEdges() {
				binary.LittleEndian.PutUint64(buf, uint64(e))
				h.Write(buf)
			}
			binary.LittleEndian.PutUint64(buf, r.Uint64())
			h.Write(buf)
			fmt.Fprintf(&out, "%s seed=%d %x\n", p.spec, seed, h.Sum(nil)[:8])
		}
	}
	if got := out.String(); got != goldenGeneratorPins {
		gotLines := strings.Split(got, "\n")
		wantLines := strings.Split(goldenGeneratorPins, "\n")
		for i, line := range gotLines {
			if i >= len(wantLines) || line != wantLines[i] {
				want := "<missing>"
				if i < len(wantLines) {
					want = wantLines[i]
				}
				t.Errorf("line %d: got %q, want %q", i+1, line, want)
			}
		}
		t.Logf("full output:\n%s", got)
	}
}
