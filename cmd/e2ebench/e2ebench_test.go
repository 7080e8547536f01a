package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"popgraph/internal/results"
)

// repoRoot is the checkout the tests build cmd/sweep from.
const repoRoot = "../.."

func TestSelfNs(t *testing.T) {
	cases := []struct {
		name    string
		dur     int64
		lanes   int
		childNs int64
		want    int64
	}{
		{"leaf", 100, 0, 0, 100},
		{"serial children", 100, 1, 30 + 20, 50},
		{"fully covered", 100, 1, 100, 0},
		{"two lanes", 100, 2, 150, 50},
	}
	for _, c := range cases {
		if got := selfNs(c.dur, c.lanes, c.childNs); got != c.want {
			t.Errorf("%s: selfNs(%d, %d, %d) = %d, want %d", c.name, c.dur, c.lanes, c.childNs, got, c.want)
		}
	}

	// The same arithmetic over a span tree: a root with two serial
	// children, one of which is a two-lane stream with folded trials.
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 1000},
		{ID: 1, Parent: 0, Name: "build", Start: 10, End: 210},
		{ID: 2, Parent: 0, Name: "stream", Start: 210, End: 910, Lanes: 2, FoldedNs: 1300},
	}}
	if got := tr.self(0); got != 1000-200-700 {
		t.Errorf("root self = %d, want 100", got)
	}
	if got := tr.self(2); got != 2*700-1300 {
		t.Errorf("stream self = %d, want 100", got)
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 50},
		{19, 50}, // nothing has ten samples beyond it: the median
		{20, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{99999, 99.9},
		{100000, 99.99}, // exactly ten beyond
		{10000000, 99.999},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCalibratedBound(t *testing.T) {
	cases := []struct{ spread, want float64 }{
		{0, 0.05},
		{0.01, 0.05},
		{0.02, 0.06},
		{0.025, 0.08},
		{1.0 / 30, 0.10},
		{0.07, 0.21},
		{0.2, 0.25},
	}
	for _, c := range cases {
		if got := calibratedBound(c.spread); got != c.want {
			t.Errorf("calibratedBound(%g) = %g, want %g", c.spread, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		name   string
		cur    []float64
		better string
		want   string
	}{
		{"unchanged", []float64{10.02, 9.98, 10.1, 9.9, 10.0}, "lower", verdictSame},
		{"slower beyond the bound", []float64{11.5, 11.6, 11.4, 11.55, 11.45}, "lower", verdictWorse},
		{"slower within the bound", []float64{10.4, 10.5, 10.3, 10.45, 10.35}, "lower", verdictSame},
		{"faster", []float64{8.0, 8.1, 7.9, 8.05, 7.95}, "lower", verdictBetter},
		{"noisy", []float64{8, 12, 10, 14, 6}, "lower", verdictUnresolved},
		{"lower throughput", []float64{8.0, 8.1, 7.9, 8.05, 7.95}, "higher", verdictWorse},
	}
	for _, c := range cases {
		if got, _ := verdict(base, c.cur, c.better, 0.10, 0); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	// A spread wider than the bound is unresolved, unless every run of
	// the change beats every run of the baseline.
	wide := []float64{10, 12, 14, 16, 18}
	if got, _ := verdict(wide, []float64{5, 6, 7, 8, 9}, "lower", 0.10, 0); got != verdictBetter {
		t.Errorf("wide but disjoint: verdict = %s, want %s", got, verdictBetter)
	}
	if got, _ := verdict(wide, []float64{9, 11, 13, 15, 17}, "lower", 0.10, 0); got != verdictUnresolved {
		t.Errorf("wide and overlapping: verdict = %s, want %s", got, verdictUnresolved)
	}
	// The absolute floor absorbs changes too small to tell from jitter.
	if got, _ := verdict(base, []float64{11.5, 11.6, 11.4, 11.55, 11.45}, "lower", 0.10, 2); got != verdictSame {
		t.Errorf("within the floor: verdict = %s, want %s", got, verdictSame)
	}
}

// runSweep runs the sweep binary in dir and fails the test on error.
func runSweep(t *testing.T, bin, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, out)
	}
}

func TestNormalization(t *testing.T) {
	dir := t.TempDir()
	bin, err := buildSweep(repoRoot, dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("replicates")
	spec := specFor(w, 7, true)
	data, _ := json.Marshal(spec)
	if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	runSweep(t, bin, dir, "-spec", specFile, "-q", "-out", "timed.jsonl")
	runSweep(t, bin, dir, "-spec", specFile, "-q", "-no-timing", "-out", "plain.jsonl")
	timed, _ := os.ReadFile(filepath.Join(dir, "timed.jsonl"))
	plain, _ := os.ReadFile(filepath.Join(dir, "plain.jsonl"))
	if !bytes.Contains(timed, []byte(`"elapsed_ns"`)) {
		t.Fatal("the timed log carries no wall-time fields; the test proves nothing")
	}

	var normalized bytes.Buffer
	c := newLogCheck(spec, w.allStabilize, &normalized)
	f, err := os.Open(filepath.Join(dir, "timed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := results.ForEach(f, c.add); err != nil {
		t.Fatal(err)
	}
	sum, err := c.finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalized.Bytes(), plain) {
		t.Fatalf("normalized log differs from the -no-timing log:\n%s\nvs\n%s", normalized.Bytes(), plain)
	}
	if sum.Bytes != int64(len(plain)) {
		t.Errorf("summary counts %d bytes, the log has %d", sum.Bytes, len(plain))
	}
	ref, err := referenceLog(spec, w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Digest != sum.Digest {
		t.Errorf("in-process digest %s, subprocess digest %s", ref.Digest, sum.Digest)
	}

	// The checker rejects a log that is out of grid order or short.
	var recs []results.Record
	if recs, err = results.Read(bytes.NewReader(plain)); err != nil {
		t.Fatal(err)
	}
	recs[0], recs[1] = recs[1], recs[0]
	c = newLogCheck(spec, w.allStabilize, nil)
	for _, r := range recs[:len(recs)-1] {
		if err := c.add(r); err != nil {
			t.Fatal(err)
		}
	}
	_, err = c.finish()
	if err == nil || !strings.Contains(err.Error(), "grid order") || !strings.Contains(err.Error(), "records") {
		t.Errorf("shuffled, truncated log: err = %v, want grid-order and record-count problems", err)
	}
}

// TestSmoke runs every workload at toy size through the subprocess
// repetitions and the traced run, with every check.
func TestSmoke(t *testing.T) {
	cfg := config{root: repoRoot, workdir: t.TempDir(), seed: defaultSeed, trace: true, smoke: true, workers: 2}
	var out bytes.Buffer
	code, err := run(cfg, "", "", "", false, &out)
	if err != nil || code != 0 {
		t.Fatalf("run = %d, %v\n%s", code, err, out.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, w := range workloads {
		for _, m := range layerMetrics {
			if _, ok := res.Metrics[w.name+"."+m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, m.name)
			}
		}
		// Toy runs last milliseconds, against which the benchmark's own
		// forced collection is large, so only a sanity bound holds here;
		// full-size runs stay under 0.02.
		if v := res.Metrics[w.name+".trace.residual_frac"].Value; v < 0 || v >= 1 {
			t.Errorf("%s: trace.residual_frac = %g, want within [0, 1)", w.name, v)
		}
	}
	if v := res.Metrics["checkpoint.shard.manifest_writes"].Value; v == 0 {
		t.Error("checkpoint workload wrote no manifests")
	}
}

// TestBenchmarkFile checks BENCHMARK.json against the workload and
// metric tables it is generated from.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, benchmarkFileName))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	bounds, err := readBounds(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	if want := benchmarkDefinition(bounds); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json is out of date with the tables in workloads.go:\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
	}
	for _, m := range got.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > maxBound || m.Bound > bounds["setup_s"] {
			t.Errorf("%s: bound %g outside (0, setup_s bound %g]", m.Name, m.Bound, bounds["setup_s"])
		}
	}
	for _, m := range got.PerLayer {
		check(m.Name)
	}
	if len(got.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(got.PerLayer))
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", got.RunSeconds)
	}
}
