package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunQuickGrid(t *testing.T) {
	cfgs := []Config{
		{GraphSpec: "clique:64", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "cycle:64", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
	}
	var lines []string
	rep, err := Run(cfgs, 42, func(format string, args ...interface{}) {
		lines = append(lines, format)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.GoVersion == "" || rep.Seed != 42 || rep.NProc < 1 || rep.GOMAXPROCS < 1 {
		t.Fatalf("report header %+v", rep)
	}
	if len(rep.Results) != 2 || len(lines) != 2 {
		t.Fatalf("got %d results, %d log lines", len(rep.Results), len(lines))
	}
	for _, m := range rep.Results {
		if m.N != 64 || m.Protocol == "" {
			t.Fatalf("measurement %+v", m)
		}
		if m.Scheduler != "uniform" {
			t.Fatalf("empty config scheduler resolved to %q, want uniform", m.Scheduler)
		}
		for _, e := range []EngineStats{m.Specialized, m.Generic} {
			if e.Steps <= 0 || e.NsPerStep <= 0 || e.StepsPerSec <= 0 {
				t.Fatalf("degenerate engine stats %+v", e)
			}
		}
		// Both engines execute the identical interaction sequence.
		if m.Specialized.Steps != m.Generic.Steps {
			t.Fatalf("engines timed different work: %d vs %d steps",
				m.Specialized.Steps, m.Generic.Steps)
		}
		if m.Speedup <= 0 {
			t.Fatalf("speedup %v", m.Speedup)
		}
	}
	if rep.MaxSpeedup < rep.Results[0].Speedup && rep.MaxSpeedup < rep.Results[1].Speedup {
		t.Fatalf("max speedup %v below cells %v, %v",
			rep.MaxSpeedup, rep.Results[0].Speedup, rep.Results[1].Speedup)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{GraphSpec: "clique:0", Protocol: "six-state", Steps: 100, Trials: 1},
		{GraphSpec: "clique:16", Protocol: "bogus", Steps: 100, Trials: 1},
		{GraphSpec: "clique:16", Protocol: "six-state", Steps: 0, Trials: 1},
		{GraphSpec: "clique:16", Protocol: "six-state", Steps: 100, Trials: 0},
		{GraphSpec: "clique:16", Scheduler: "bogus", Protocol: "six-state", Steps: 100, Trials: 1},
		{GraphSpec: "clique:16", Scheduler: "churn:0:0", Protocol: "six-state", Steps: 100, Trials: 1},
	} {
		if _, err := Run([]Config{cfg}, 1, nil); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestRunSchedulerCells — scheduler and drop cells compile to their
// specialized kernels (churn on a CSR graph included; churn on the
// implicit clique stays generic), both timings cover the identical step
// count, and every cell records the engine its plan picked.
func TestRunSchedulerCells(t *testing.T) {
	cfgs := []Config{
		{GraphSpec: "torus:8x8", Scheduler: "weighted:exp", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Scheduler: "node-clock", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Scheduler: "churn:16:4", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Protocol: "six-state", Drop: 0.1, Steps: 1 << 12, Trials: 1},
		{GraphSpec: "clique:16", Scheduler: "churn:16:4", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
	}
	rep, err := Run(cfgs, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"weighted:exp", "node-clock", "churn:16:4", "uniform", "churn:16:4"}
	wantEngines := []string{"weighted", "node-clock", "churn-uniform", "dense-uniform", "generic"}
	for i, m := range rep.Results {
		if m.Scheduler != wantNames[i] {
			t.Fatalf("cell %d scheduler %q, want %q", i, m.Scheduler, wantNames[i])
		}
		if m.Engine != wantEngines[i] {
			t.Fatalf("cell %d engine %q, want %q", i, m.Engine, wantEngines[i])
		}
		if m.Specialized.Steps != m.Generic.Steps {
			t.Fatalf("cell %d timed different work: %d vs %d steps",
				i, m.Specialized.Steps, m.Generic.Steps)
		}
		if m.Specialized.NsPerStep <= 0 || m.Generic.NsPerStep <= 0 {
			t.Fatalf("cell %d degenerate stats %+v", i, m)
		}
	}
	// The generic-engine cell is timed once: its two stat blocks must be
	// copies, and its speedup exactly 1.
	churn := rep.Results[4]
	if churn.Specialized != churn.Generic || churn.Speedup != 1 {
		t.Fatalf("generic cell timed twice: %+v", churn)
	}
	// The drop cell's key must be distinct from the same cell at drop 0,
	// so baselines gate the two fast paths independently.
	if rep.Results[3].key() == (Measurement{GraphSpec: "torus:8x8", Scheduler: "uniform", Protocol: rep.Results[3].Protocol}).key() {
		t.Fatal("drop cell key collides with drop-0 cell")
	}
}

// TestRunProtocolEngineCells — the protocol-compilation axis. Tabular
// protocols record protocol_engine "table" with a real table-vs-
// interface timing over identical work; non-tabular protocols record
// "step" with the interface stats copied and table speedup exactly 1.
func TestRunProtocolEngineCells(t *testing.T) {
	cfgs := []Config{
		{GraphSpec: "torus:8x8", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Protocol: "majority:0.75", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Protocol: "identifier", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "torus:8x8", Scheduler: "churn:16:4", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
		{GraphSpec: "clique:16", Scheduler: "churn:16:4", Protocol: "six-state", Steps: 1 << 12, Trials: 1},
	}
	rep, err := Run(cfgs, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantProtoEngines := []string{"table", "table", "step", "table", "step"}
	for i, m := range rep.Results {
		if m.ProtocolEngine != wantProtoEngines[i] {
			t.Fatalf("cell %d protocol engine %q, want %q", i, m.ProtocolEngine, wantProtoEngines[i])
		}
		if m.Specialized.Steps != m.Interface.Steps || m.Interface.Steps != m.Generic.Steps {
			t.Fatalf("cell %d timed different work: %d / %d / %d steps",
				i, m.Specialized.Steps, m.Interface.Steps, m.Generic.Steps)
		}
		if m.TableSpeedup <= 0 {
			t.Fatalf("cell %d table speedup %v", i, m.TableSpeedup)
		}
	}
	// "step" cells have no separate interface variant: stats copied,
	// table speedup exactly 1. The clique churn cell additionally copies
	// the generic stats (one loop, timed once).
	id := rep.Results[2]
	if id.Interface != id.Specialized || id.TableSpeedup != 1 {
		t.Fatalf("step cell timed a phantom interface variant: %+v", id)
	}
	churn := rep.Results[4]
	if churn.Interface != churn.Specialized || churn.Generic != churn.Specialized ||
		churn.Speedup != 1 || churn.TableSpeedup != 1 {
		t.Fatalf("generic step cell timed twice: %+v", churn)
	}
	if rep.MaxTableSpeedup < rep.Results[0].TableSpeedup {
		t.Fatalf("max table speedup %v below cell %v", rep.MaxTableSpeedup, rep.Results[0].TableSpeedup)
	}
}

// TestDeltaTable — the per-cell -compare rendering classifies matched,
// regressed, new and removed cells and the markdown writer names them.
func TestDeltaTable(t *testing.T) {
	cell := func(graph, proto string, ns float64) Measurement {
		return Measurement{
			GraphSpec: graph, Scheduler: "uniform", Protocol: proto,
			Engine: "dense-uniform", ProtocolEngine: "table",
			Specialized: EngineStats{Steps: 1, NsPerStep: ns, BestNsPerStep: ns},
		}
	}
	base := Report{Results: []Measurement{
		cell("torus:8x8", "six-state", 10),
		cell("cycle:64", "six-state", 10),
		cell("lollipop:8:8", "six-state", 10),
	}}
	cur := Report{Results: []Measurement{
		cell("torus:8x8", "six-state", 11), // +10%: ok
		cell("cycle:64", "six-state", 20),  // +100%: regressed
		cell("clique:64", "six-state", 5),  // new
	}}
	rows := DeltaTable(cur, base, 0.30)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	wantStatus := map[string]string{
		"torus:8x8":    "ok",
		"cycle:64":     "regressed",
		"clique:64":    "new",
		"lollipop:8:8": "removed",
	}
	for _, r := range rows {
		if r.Status != wantStatus[r.GraphSpec] {
			t.Fatalf("%s: status %q, want %q", r.GraphSpec, r.Status, wantStatus[r.GraphSpec])
		}
	}
	if d := rows[0].Delta; d < 0.09 || d > 0.11 {
		t.Fatalf("torus delta %v, want ~0.10", d)
	}
	var buf bytes.Buffer
	DeltaReport("deltas", rows).WriteMarkdown(&buf)
	md := buf.String()
	for _, want := range []string{"| regressed |", "| torus:8x8 |", "removed", "new", "+100.0%"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestCompare(t *testing.T) {
	cell := func(graph, sched, proto string, ns float64) Measurement {
		return Measurement{
			GraphSpec: graph, Scheduler: sched, Protocol: proto,
			Specialized: EngineStats{Steps: 1, NsPerStep: ns, StepsPerSec: 1e9 / ns},
		}
	}
	base := Report{Schema: Schema, Results: []Measurement{
		cell("clique:64", "uniform", "six-state", 10),
		cell("torus:8x8", "weighted:exp", "six-state", 20),
		cell("cycle:64", "uniform", "six-state", 10),
	}}
	cur := Report{Schema: Schema, Results: []Measurement{
		cell("clique:64", "uniform", "six-state", 12.9),    // +29%: inside tolerance
		cell("torus:8x8", "weighted:exp", "six-state", 30), // +50%: regression
		cell("ba:64:2", "uniform", "six-state", 99),        // no baseline: skipped
	}}
	msgs := Compare(cur, base, 0.30)
	if len(msgs) != 1 {
		t.Fatalf("got %d regressions, want 1: %v", len(msgs), msgs)
	}
	if !strings.Contains(msgs[0], "torus:8x8") || !strings.Contains(msgs[0], "weighted:exp") {
		t.Fatalf("regression message %q does not name the cell", msgs[0])
	}
	if msgs := Compare(cur, base, 10); len(msgs) != 0 {
		t.Fatalf("huge tolerance still regressed: %v", msgs)
	}
	// A faster current run never regresses, even at zero tolerance:
	// base's cells are all at or below cur's numbers, and base's cycle
	// cell has no counterpart in cur, so it is skipped.
	if msgs := Compare(base, cur, 0); len(msgs) != 0 {
		t.Fatalf("reverse compare flagged improvements: %v", msgs)
	}
	// When BestNsPerStep is present it is the gate statistic: a noisy
	// mean does not regress as long as the best trial holds the line.
	noisy := cell("clique:64", "uniform", "six-state", 50)
	noisy.Specialized.BestNsPerStep = 10
	if msgs := Compare(Report{Results: []Measurement{noisy}}, base, 0.30); len(msgs) != 0 {
		t.Fatalf("best-of-trials gate used the mean: %v", msgs)
	}
	// Zero overlap (grid renamed, baseline stale) must not pass silently.
	renamed := Report{Results: []Measurement{cell("torus:32", "uniform", "six-state", 1)}}
	msgs = Compare(renamed, base, 0.30)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "no cell") {
		t.Fatalf("zero-overlap compare: %v", msgs)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run([]Config{
		{GraphSpec: "clique:32", Protocol: "six-state", Steps: 1 << 10, Trials: 1},
	}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"schema": "` + Schema + `"`, `"steps_per_sec"`, `"ns_per_step"`,
		`"speedup"`, `"max_speedup"`, `"clique-32"`, `"scheduler": "uniform"`,
		`"engine": "clique-uniform"`, `"protocol_engine": "table"`,
		`"interface"`, `"table_speedup"`, `"max_table_speedup"`,
		`"graph_source": "generator"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0].Graph != "clique-32" || back.Seed != 7 {
		t.Fatalf("round trip %+v", back)
	}
	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("foreign schema accepted")
	}
	// A report from before v7 (still carrying the batch axis) must be
	// refused with a pointer to regenerating it, not silently read with
	// its pool-per-trial timings.
	_, err = ReadJSON(strings.NewReader(`{"schema":"popgraph-bench/v6","max_batch_speedup":1.7}`))
	if err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("v6 report: err = %v, want a regenerate hint", err)
	}
	// The batch axis is gone from the wire format.
	for _, gone := range []string{`"batch`, `"batched"`, `"max_batch_speedup"`} {
		if strings.Contains(out, gone) {
			t.Fatalf("JSON still carries %s:\n%s", gone, out)
		}
	}
}

// TestReadmeSchemaExample keeps README's BENCH_sim.json example on the
// current schema, so a bump cannot leave the docs describing an old
// layout.
func TestReadmeSchemaExample(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := `"schema": "` + Schema + `"`; !strings.Contains(string(readme), want) {
		t.Fatalf("README.md's schema example does not name %s", want)
	}
}

func TestDefaultGrid(t *testing.T) {
	full, quick := DefaultGrid(false), DefaultGrid(true)
	if len(full) != len(quick) || len(full) == 0 {
		t.Fatalf("grid sizes %d, %d", len(full), len(quick))
	}
	// Per cell the quick grid may only shrink the step budget; cells
	// where ns/step depends on trial length (the replicate-heavy short
	// trials) keep it unchanged so the -compare statistic stays
	// comparable to the full-grid baseline. In aggregate the quick grid
	// must still be strictly smaller.
	sixState, dropCells, majorityCells, shrunk := 0, 0, 0, 0
	for i := range full {
		if full[i].Steps < quick[i].Steps {
			t.Fatalf("quick grid larger: %+v vs %+v", full[i], quick[i])
		}
		if quick[i].Steps < full[i].Steps {
			shrunk++
		}
		if full[i].Protocol == "six-state" {
			sixState++
		}
		if full[i].Drop > 0 {
			dropCells++
		}
		if strings.HasPrefix(full[i].Protocol, "majority:") {
			majorityCells++
		}
	}
	if sixState < 2 {
		t.Fatalf("default grid has %d six-state cells, want >= 2", sixState)
	}
	if dropCells < 2 {
		t.Fatalf("default grid has %d drop>0 cells, want >= 2 (the in-kernel drop fast path must stay gated)", dropCells)
	}
	if majorityCells < 1 {
		t.Fatal("default grid lost its majority cell; the second transition table must stay gated")
	}
	if shrunk == 0 {
		t.Fatal("quick grid shrinks no cell; it would be as slow as the full grid")
	}
}
