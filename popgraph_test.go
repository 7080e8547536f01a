package popgraph_test

import (
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"popgraph"
	"popgraph/internal/snapshot"
)

func TestQuickstartFlow(t *testing.T) {
	r := popgraph.NewRand(42)
	g := popgraph.Torus(4, 4)
	res := popgraph.Run(g, popgraph.NewSixState(), r, popgraph.Options{})
	if !res.Stabilized {
		t.Fatal("did not stabilize")
	}
	if res.Leader < 0 || res.Leader >= g.N() {
		t.Fatalf("bad leader %d", res.Leader)
	}
}

func TestAllProtocolsViaFacade(t *testing.T) {
	r := popgraph.NewRand(7)
	g := popgraph.Clique(16)
	protos := []popgraph.Protocol{
		popgraph.NewSixState(),
		popgraph.NewSixStateWithCandidates([]int{1, 5, 9}),
		popgraph.NewIdentifier(),
		popgraph.NewIdentifierRegular(),
		popgraph.NewFastFor(g, r),
	}
	for _, p := range protos {
		res := popgraph.Run(g, p, r, popgraph.Options{})
		if !res.Stabilized {
			t.Fatalf("%s did not stabilize", p.Name())
		}
		if p.Output(res.Leader) != popgraph.Leader {
			t.Fatalf("%s: leader does not output leader", p.Name())
		}
	}
}

func TestStarProtocolViaFacade(t *testing.T) {
	r := popgraph.NewRand(9)
	res := popgraph.Run(popgraph.Star(64), popgraph.NewStarProtocol(), r, popgraph.Options{})
	if !res.Stabilized || res.Steps != 1 {
		t.Fatalf("star protocol result %+v", res)
	}
}

func TestParseGraphSpecs(t *testing.T) {
	r := popgraph.NewRand(11)
	cases := []struct {
		spec string
		n    int
	}{
		{"clique:10", 10},
		{"cycle:12", 12},
		{"path:5", 5},
		{"star:7", 7},
		{"hypercube:3", 8},
		{"torus:3x4", 12},
		{"grid:2x5", 10},
		{"lollipop:4:3", 7},
		{"barbell:3:2", 8},
		{"gnp:30:0.3", 30},
		{"regular:20:4", 20},
		{"ws:24:4:0.1", 24},
		{"ws:24:4:0", 24},
		{"ba:30:2", 30},
	}
	for _, c := range cases {
		g, err := popgraph.ParseGraph(c.spec, r)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n {
			t.Fatalf("%s: n = %d, want %d", c.spec, g.N(), c.n)
		}
	}
	// Families with closed-form edge counts keep them through parsing.
	if g, _ := popgraph.ParseGraph("ws:24:4:0.3", r); g.M() != 48 {
		t.Fatalf("ws:24:4:0.3 m = %d, want n·k/2 = 48", g.M())
	}
	// Seed clique on m+1 = 3 nodes (3 edges) plus m = 2 per later node.
	if g, _ := popgraph.ParseGraph("ba:30:2", r); g.M() != 3+27*2 {
		t.Fatalf("ba:30:2 m = %d, want %d", g.M(), 3+27*2)
	}
}

func TestParseGraphErrors(t *testing.T) {
	r := popgraph.NewRand(13)
	for _, spec := range []string{
		"", "nope:5", "clique", "clique:x", "torus:4", "torus:axb",
		"gnp:10", "gnp:10:zzz", "lollipop:4", "regular:10:x",
		"ws:10:4", "ws:10:x:0.1", "ws:10:4:x", "ba:10", "ba:10:x",
		"mmap:x.popg",
	} {
		if _, err := popgraph.ParseGraph(spec, r); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseGraphRangeErrors — specs that are grammatically fine but whose
// parameters are out of range for the family must come back as errors
// naming the spec — the generators panic on them, and that panic used to
// escape and crash the CLI tools with a backtrace.
func TestParseGraphRangeErrors(t *testing.T) {
	r := popgraph.NewRand(13)
	for _, spec := range []string{
		"clique:1", "clique:-5", "clique:0",
		"cycle:2", "cycle:-3",
		"path:1", "path:-1",
		"star:1", "star:-2",
		"hypercube:0", "hypercube:25", "hypercube:-1",
		"torus:2x5", "torus:5x2", "torus:-3x4",
		"grid:0x4", "grid:1x1", "grid:-2x3",
		"lollipop:1:3", "lollipop:4:0", "lollipop:-2:-2",
		"barbell:1:2", "barbell:2:-1",
		"gnp:1:0.5", "gnp:10:0", "gnp:10:1.5", "gnp:-4:0.5", "gnp:10:NaN",
		"regular:10:2", "regular:10:11", "regular:5:3", "regular:-6:3",
		"ws:10:3:0.1", "ws:10:0:0.1", "ws:8:8:0.1", "ws:2:2:0.1",
		"ws:10:4:-0.5", "ws:10:4:1.5",
		"ba:10:0", "ba:5:5", "ba:5:6", "ba:1:1", "ba:10:-2",
	} {
		g, err := popgraph.ParseGraph(spec, r)
		if err == nil {
			t.Errorf("spec %q accepted (built %s)", spec, g.Name())
			continue
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("spec %q: error %q does not name the spec", spec, err)
		}
	}
}

// TestParseGraphOversized checks that specs whose node count or 2m
// overflows int32 node ids and CSR offsets come back as errors before the
// generator allocates: each used to die with a fatal out-of-memory error.
// hypercube:28 (n fits, 2m does not) is refused by the dimension cap.
func TestParseGraphOversized(t *testing.T) {
	r := popgraph.NewRand(13)
	for _, c := range []struct{ spec, why string }{
		{"cycle:3000000000", "int32"},
		{"torus:100000x100000", "int32"},
		{"clique:3000000000", "int32"},
		{"hypercube:28", "out of range"},
		{"ws:300000000:16:0.1", "int32"},
		{"regular:300000000:16", "int32"},
		{"ba:300000000:16", "int32"},
		{"gnp:70000:1", "int32"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := popgraph.ParseGraph(c.spec, r)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("spec %q accepted", c.spec)
		}
		if !strings.Contains(err.Error(), c.spec) || !strings.Contains(err.Error(), c.why) {
			t.Errorf("spec %q: error %q should name the spec and say %q", c.spec, err, c.why)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("spec %q: allocated %d bytes before refusing", c.spec, alloc)
		}
	}
}

func TestParseScheduler(t *testing.T) {
	r := popgraph.NewRand(23)
	g := popgraph.Torus(3, 4)
	cases := []struct {
		spec string
		name string
	}{
		{"uniform", "uniform"},
		{"weighted", "weighted:exp"},
		{"weighted:exp", "weighted:exp"},
		{"weighted:degprod", "weighted:degprod"},
		{"node-clock", "node-clock"},
		{"nodeclock", "node-clock"},
		{"churn:64:16", "churn:64:16"},
		{"churn:2.5:1", "churn:2.5:1"},
	}
	for _, c := range cases {
		s, err := popgraph.ParseScheduler(c.spec, g, r)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if s.Name() != c.name {
			t.Fatalf("%s: name %q, want %q", c.spec, s.Name(), c.name)
		}
	}
}

// TestChurnNamesStayDistinct — burst lengths too large for int64 keep
// their own names, and each name parses back to a scheduler of the same
// name, so the aggregate never merges two churn specs into one cell.
func TestChurnNamesStayDistinct(t *testing.T) {
	r := popgraph.NewRand(23)
	g := popgraph.Torus(3, 4)
	seen := make(map[string]string)
	for _, spec := range []string{"churn:1e300:2", "churn:1e308:2", "churn:9223372036854775807:2"} {
		s, err := popgraph.ParseScheduler(spec, g, r)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		name := s.Name()
		if prev, ok := seen[name]; ok {
			t.Fatalf("%s and %s share the name %q", prev, spec, name)
		}
		seen[name] = spec
		back, err := popgraph.ParseScheduler(name, g, r)
		if err != nil {
			t.Fatalf("%s: name %q does not parse: %v", spec, name, err)
		}
		if back.Name() != name {
			t.Fatalf("%s: name %q parses back as %q", spec, name, back.Name())
		}
	}
}

func TestParseSchedulerErrors(t *testing.T) {
	r := popgraph.NewRand(23)
	g := popgraph.Clique(8)
	for _, spec := range []string{
		"", "bogus", "uniform:1",
		"weighted:nosuch", "weighted:exp:1", "weighted:snap",
		"node-clock:3",
		"churn", "churn:64", "churn:64:16:4", "churn:x:16", "churn:64:x",
		"churn:0.5:16", "churn:64:0", "churn:-1:2",
	} {
		_, err := popgraph.ParseScheduler(spec, g, r)
		if err == nil {
			t.Errorf("spec %q accepted", spec)
			continue
		}
		if !strings.Contains(err.Error(), spec) {
			t.Errorf("spec %q: error %q does not name the spec", spec, err)
		}
	}
}

// TestParseSchedulerRefusesHugeWeighted — a weighted scheduler on a
// graph with more than 2³¹−1 edges, here the implicit clique:65537
// (M = 2,147,516,416), is an error quoting the spec, returned before one
// rate per edge is allocated.
func TestParseSchedulerRefusesHugeWeighted(t *testing.T) {
	g := popgraph.Clique(65537)
	for _, spec := range []string{"weighted", "weighted:exp", "weighted:degprod"} {
		_, err := popgraph.ParseScheduler(spec, g, popgraph.NewRand(1))
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(spec)) ||
			!strings.Contains(err.Error(), "2147516416 edges") {
			t.Errorf("spec %q on clique:65537: got %v, want an error quoting the spec and the edge count", spec, err)
		}
	}
}

// TestNewWeightedSchedulerKeepsRates — the public constructor copies its
// rates, so the caller's slice is unchanged and free to reuse, although
// the alias table underneath scales the slice it is given in place.
func TestNewWeightedSchedulerKeepsRates(t *testing.T) {
	g := popgraph.Cycle(6)
	rates := []float64{1, 2, 3, 4, 5, 6}
	if _, err := popgraph.NewWeightedScheduler(g, "w", rates); err != nil {
		t.Fatal(err)
	}
	for i, r := range rates {
		if r != float64(i+1) {
			t.Fatalf("rates = %v after NewWeightedScheduler, want 1..6", rates)
		}
	}
}

// TestParsedSchedulersRun — every parsed scheduler drives a full run to
// stabilization through the public facade.
func TestParsedSchedulersRun(t *testing.T) {
	g := popgraph.Torus(3, 4)
	for _, spec := range []string{"uniform", "weighted:exp", "weighted:degprod", "node-clock", "churn:16:4"} {
		r := popgraph.NewRand(31)
		s, err := popgraph.ParseScheduler(spec, g, r)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		res := popgraph.Run(g, popgraph.NewSixState(), r, popgraph.Options{Scheduler: s})
		if !res.Stabilized {
			t.Fatalf("%s: did not stabilize", spec)
		}
	}
}

// TestFileSpecMatchesGenerator — a file: spec loads the graph its
// generator spec built, so a six-state run under a weighted:exp
// scheduler parsed on the loaded graph has the same Result and leaves
// the RNG in the same state as the run on the generator-built graph.
func TestFileSpecMatchesGenerator(t *testing.T) {
	const spec = "ws:512:8:0.2"
	g, err := popgraph.ParseGraph(spec, popgraph.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Build(g, spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ws.popg")
	if err := snapshot.WriteFile(path, snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := popgraph.ParseGraph("file:"+path, popgraph.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	run := func(g popgraph.Graph) (popgraph.Result, *popgraph.Rand) {
		r := popgraph.NewRand(41)
		s, err := popgraph.ParseScheduler("weighted:exp", g, r)
		if err != nil {
			t.Fatal(err)
		}
		res := popgraph.Run(g, popgraph.NewSixState(), r, popgraph.Options{Scheduler: s})
		return res, r
	}
	wantRes, wantRNG := run(g)
	gotRes, gotRNG := run(loaded)
	if !wantRes.Stabilized {
		t.Fatalf("generator run did not stabilize: %+v", wantRes)
	}
	if gotRes != wantRes {
		t.Fatalf("file: run %+v, generator run %+v", gotRes, wantRes)
	}
	if gotRNG.Save() != wantRNG.Save() {
		t.Fatalf("post-run RNG state differs between file: and generator runs")
	}
}

func TestParseProtocol(t *testing.T) {
	r := popgraph.NewRand(15)
	g := popgraph.Clique(8)
	for _, spec := range []string{"six-state", "identifier", "identifier-regular", "fast", "star", "majority:0.75"} {
		if _, err := popgraph.ParseProtocol(spec, g, r); err != nil {
			t.Errorf("%s: %v", spec, err)
		}
	}
	if _, err := popgraph.ParseProtocol("bogus", g, r); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Errorf("bad protocol error: %v", err)
	}
}

// TestProtocolSpecErrors — every malformed protocol spec comes back from
// ParseProtocol/ProtocolFactory as an error naming the problem — never
// a panic, and never a nil factory alongside a nil error.
func TestProtocolSpecErrors(t *testing.T) {
	r := popgraph.NewRand(16)
	g := popgraph.Clique(8)
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"", "unknown protocol"},
		{"six-state-typo", "unknown protocol"},
		{"majority", "unknown protocol"},     // fraction is mandatory
		{"majority:", "between 0 and 1"},     // empty fraction
		{"majority:nope", "between 0 and 1"}, // non-numeric
		{"majority:0", "between 0 and 1"},    // degenerate
		{"majority:1", "between 0 and 1"},    // degenerate
		{"majority:-0.5", "between 0 and 1"}, // negative
		{"majority:0.5", "tie"},              // rounds to a tie on n=8
		{"majority:0.001", "unanimous"},      // rounds to zero ones
		{"majority:0.999", "unanimous"},      // rounds to all ones
	}
	for _, c := range cases {
		t.Run(c.spec, func(t *testing.T) {
			factory, err := popgraph.ProtocolFactory(c.spec, g, r)
			if err == nil {
				t.Fatalf("ProtocolFactory accepted %q", c.spec)
			}
			if factory != nil {
				t.Fatalf("ProtocolFactory returned a factory alongside error %v", err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if _, err := popgraph.ParseProtocol(c.spec, g, r); err == nil {
				t.Fatal("ParseProtocol accepted what ProtocolFactory rejected")
			}
		})
	}
	// A graph-dependent tuning failure (the fast protocol on a degenerate
	// graph) must come back as an error naming the spec, not a panic.
	if _, err := popgraph.ProtocolFactory("majority:0.6", popgraph.Clique(2), r); err == nil {
		t.Error("majority:0.6 on K_2 is a tie (1 of 2) and should be rejected")
	}
}

// TestMajorityFactoryIsTrialSafe — a majority:FRAC factory hands each
// trial a fresh instance over the same deterministic input assignment.
func TestMajorityFactoryIsTrialSafe(t *testing.T) {
	r := popgraph.NewRand(21)
	g := popgraph.Cycle(10)
	factory, err := popgraph.ProtocolFactory("majority:0.7", g, r)
	if err != nil {
		t.Fatal(err)
	}
	a, b := factory(), factory()
	if a == b {
		t.Fatal("factory reused a protocol instance")
	}
	resA := popgraph.Run(g, a, popgraph.NewRand(3), popgraph.Options{})
	resB := popgraph.Run(g, b, popgraph.NewRand(3), popgraph.Options{})
	if resA != resB {
		t.Fatalf("same-seed trials diverged: %+v vs %+v", resA, resB)
	}
	if !resA.Stabilized || a.Leaders() != g.N() {
		t.Fatalf("majority 0.7 should converge to all ones: %+v, leaders %d", resA, a.Leaders())
	}
}

func TestMeasurementFacade(t *testing.T) {
	r := popgraph.NewRand(17)
	g := popgraph.Cycle(32)
	b := popgraph.EstimateBroadcastTime(g, r)
	if b <= 0 {
		t.Fatal("broadcast estimate must be positive")
	}
	h := popgraph.EstimateHittingTime(g, r, true)
	if h < 255.9 || h > 256.1 {
		t.Fatalf("H(C_32) = %v, want 256", h)
	}
	// The Monte-Carlo estimator maximizes noisy means over pairs, so it
	// is upward-biased; only order of magnitude is checked here.
	hmc := popgraph.EstimateHittingTime(g, r, false)
	if hmc < 0.3*h || hmc > 4*h {
		t.Fatalf("MC hitting %v far from exact %v", hmc, h)
	}
	tk := popgraph.PropagationTimes(g, 0, r)
	if len(tk) != 17 {
		t.Fatalf("propagation distances %d", len(tk))
	}
	if popgraph.BroadcastFrom(g, 0, r) < int64(g.N())/2 {
		t.Fatal("broadcast below trivial bound")
	}
	sp := popgraph.AnalyzeSpectrum(g, r)
	if sp.Lambda2 <= 0 || sp.SweepExpansion <= 0 {
		t.Fatalf("spectral profile %+v", sp)
	}
	if sp.ConductanceLower > sp.SweepConductance+1e-3 {
		t.Fatalf("Cheeger lower %v above sweep %v", sp.ConductanceLower, sp.SweepConductance)
	}
}

func TestRunMajorityFacade(t *testing.T) {
	r := popgraph.NewRand(19)
	g := popgraph.Cycle(15)
	inputs := make([]bool, 15)
	for i := 0; i < 9; i++ {
		inputs[i] = true
	}
	res := popgraph.RunMajority(g, inputs, r, 0)
	if !res.Stabilized || !res.Winner {
		t.Fatalf("majority result %+v, want stabilized winner=true", res)
	}
	// Flip the majority.
	for i := range inputs {
		inputs[i] = !inputs[i]
	}
	res = popgraph.RunMajority(g, inputs, r, 0)
	if !res.Stabilized || res.Winner {
		t.Fatalf("flipped majority result %+v, want winner=false", res)
	}
}

// TestRunMajorityDefaultCap — RunMajority routes through the standard
// execution plan, so maxSteps <= 0 means the same DefaultMaxSteps
// default as every other entry point (regression: it used an ad-hoc
// 1<<42 cap), an explicit cap is honored exactly, and the defaulted run
// is byte-identical to running the majority Protocol through RunE with
// a zero cap.
func TestRunMajorityDefaultCap(t *testing.T) {
	g := popgraph.Cycle(13)
	inputs := make([]bool, 13)
	for i := 0; i < 8; i++ {
		inputs[i] = true
	}
	// An explicit tiny cap is respected: the run stops at exactly that
	// many interactions, unstabilized.
	res := popgraph.RunMajority(g, inputs, popgraph.NewRand(5), 3)
	if res.Stabilized || res.Steps != 3 {
		t.Fatalf("capped run %+v, want 3 unstabilized steps", res)
	}
	// maxSteps 0 is the library default, i.e. what RunE resolves for a
	// zero MaxSteps — not some private constant.
	def := popgraph.RunMajority(g, inputs, popgraph.NewRand(5), 0)
	p := popgraph.NewMajority(inputs)
	ref, err := popgraph.RunE(g, p, popgraph.NewRand(5), popgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !def.Stabilized || def.Steps != ref.Steps {
		t.Fatalf("defaulted RunMajority %+v disagrees with RunE %+v", def, ref)
	}
	pl, err := popgraph.Compile(g, popgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Steps > pl.MaxSteps() {
		t.Fatalf("defaulted run took %d steps, beyond the library default cap %d", def.Steps, pl.MaxSteps())
	}
}

func TestNewGraphFacade(t *testing.T) {
	g, err := popgraph.NewGraph(3, []popgraph.Edge{{U: 0, W: 1}, {U: 1, W: 2}}, "vee")
	if err != nil {
		t.Fatal(err)
	}
	if popgraph.Diameter(g) != 2 || popgraph.MaxDegree(g) != 2 || popgraph.MinDegree(g) != 1 {
		t.Fatal("facade properties wrong")
	}
	if _, err := popgraph.NewGraph(2, nil, "broken"); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

// TestCompileAndRunE — the root package re-exports the plan API — bad
// configurations come back as errors naming the problem, good ones
// compile to a named kernel and run identically to Run.
func TestCompileAndRunE(t *testing.T) {
	g := popgraph.Torus(4, 4)
	if _, err := popgraph.Compile(g, popgraph.Options{DropRate: 2}); err == nil {
		t.Fatal("Compile accepted drop rate 2")
	}
	if _, err := popgraph.RunE(g, popgraph.NewSixState(), popgraph.NewRand(1), popgraph.Options{DropRate: -1}); err == nil {
		t.Fatal("RunE accepted drop rate -1")
	}
	pl, err := popgraph.Compile(g, popgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine() != "dense-uniform" {
		t.Fatalf("engine %q, want dense-uniform", pl.Engine())
	}
	res, err := popgraph.RunE(g, popgraph.NewSixState(), popgraph.NewRand(5), popgraph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := popgraph.Run(g, popgraph.NewSixState(), popgraph.NewRand(5), popgraph.Options{}); res != want {
		t.Fatalf("RunE %+v != Run %+v", res, want)
	}
}
