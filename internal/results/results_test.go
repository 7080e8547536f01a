package results

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sample() []Record {
	return []Record{
		{Graph: "clique-16", N: 16, M: 120, Protocol: "six-state", Trial: 0,
			Seed: 11, Steps: 1000, Stabilized: true, Leader: 3},
		{Graph: "clique-16", N: 16, M: 120, Protocol: "six-state", Trial: 1,
			Seed: 12, Steps: 2000, Stabilized: true, Leader: 7},
		{Graph: "clique-16", N: 16, M: 120, Protocol: "six-state", Trial: 2,
			Seed: 13, Steps: 5000, Stabilized: false, Leader: -1},
		{Graph: "cycle-8", N: 8, M: 8, Protocol: "fast", Trial: 0,
			Seed: 21, DropRate: 0.25, Steps: 300, Stabilized: true, Leader: 0, Backup: 2},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := sample()
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(recs) {
		t.Fatalf("wrote %d lines, want %d", got, len(recs))
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("read %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
}

func TestWriteDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := Write(&a, sample()); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, sample()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same records differ")
	}
}

func TestReadSkipsBlankAndRejectsGarbage(t *testing.T) {
	recs, err := Read(strings.NewReader("\n{\"graph\":\"g\",\"n\":2,\"m\":1,\"protocol\":\"p\",\"trial\":0,\"seed\":1,\"steps\":5,\"stabilized\":true,\"leader\":1}\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("recs %v err %v", recs, err)
	}
	if _, err := Read(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line accepted")
	}
}

// aggregate feeds recs to one Accumulator and returns its groups.
func aggregate(recs []Record) []Group {
	acc := NewAccumulator()
	for _, rec := range recs {
		acc.Add(rec)
	}
	return acc.Groups()
}

func TestAggregate(t *testing.T) {
	groups := aggregate(sample())
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	g0 := groups[0]
	if g0.Graph != "clique-16" || g0.Protocol != "six-state" || g0.DropRate != 0 {
		t.Fatalf("first group key %+v", g0.Key)
	}
	if g0.Trials != 3 || g0.Stabilized != 2 {
		t.Fatalf("first group counts %+v", g0)
	}
	if g0.Steps.Mean != 1500 || g0.Steps.N != 2 {
		t.Fatalf("first group summary %+v", g0.Steps)
	}
	g1 := groups[1]
	if g1.Graph != "cycle-8" || g1.DropRate != 0.25 || g1.Trials != 1 {
		t.Fatalf("second group %+v", g1)
	}
	if g1.BackupMean != 2 {
		t.Fatalf("backup mean %v, want 2", g1.BackupMean)
	}
}

func TestAggregateEmptyGroupSummary(t *testing.T) {
	recs := []Record{{Graph: "g", N: 4, M: 3, Protocol: "p", Steps: 99, Stabilized: false, Leader: -1}}
	groups := aggregate(recs)
	if len(groups) != 1 || groups[0].Steps.N != 0 || groups[0].Stabilized != 0 {
		t.Fatalf("groups %+v", groups)
	}
}

func TestSummaryTable(t *testing.T) {
	var buf bytes.Buffer
	SummaryTable("demo", aggregate(sample())).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "clique-16", "six-state", "2/3", "cycle-8", "0.25"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary table missing %q:\n%s", want, out)
		}
	}
}

// TestSchedulerSplitsGroupsAndRoundTrips — records differing only in
// scheduler are distinct grid cells, the field survives the JSONL
// round trip, and the table renders it — with records predating the
// scheduler axis (empty field) displayed as uniform.
func TestSchedulerSplitsGroupsAndRoundTrips(t *testing.T) {
	recs := []Record{
		{Graph: "torus-4x4", N: 16, M: 32, Scheduler: "uniform", Protocol: "six-state",
			Trial: 0, Seed: 1, Steps: 500, Stabilized: true, Leader: 2},
		{Graph: "torus-4x4", N: 16, M: 32, Scheduler: "weighted:exp", Protocol: "six-state",
			Trial: 0, Seed: 1, Steps: 900, Stabilized: true, Leader: 5},
		{Graph: "torus-4x4", N: 16, M: 32, Protocol: "six-state",
			Trial: 0, Seed: 1, Steps: 700, Stabilized: true, Leader: 1},
	}
	groups := aggregate(recs)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3 (scheduler must split cells)", len(groups))
	}
	var jsonl bytes.Buffer
	if err := Write(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"scheduler":"weighted:exp"`) {
		t.Fatalf("scheduler field missing from JSONL:\n%s", jsonl.String())
	}
	back, err := Read(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if back[1].Scheduler != "weighted:exp" || back[2].Scheduler != "" {
		t.Fatalf("round-tripped schedulers %q, %q", back[1].Scheduler, back[2].Scheduler)
	}
	var buf bytes.Buffer
	SummaryTable("scheds", groups).WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "sched") || !strings.Contains(out, "weighted:exp") {
		t.Fatalf("table missing scheduler column:\n%s", out)
	}
	// The legacy record (empty scheduler) renders as uniform.
	if strings.Count(out, "uniform") != 2 {
		t.Fatalf("want 2 uniform rows (explicit + legacy), got:\n%s", out)
	}
}

// TestSummaryTableNoStabilizedRendersDash — a configuration where every
// trial hit the step cap used to print steps(mean)=0, which read as
// instant stabilization; it must render "—" markers instead.
func TestSummaryTableNoStabilizedRendersDash(t *testing.T) {
	recs := []Record{
		{Graph: "cycle-64", N: 64, M: 64, Protocol: "six-state", Trial: 0,
			Seed: 1, Steps: 5000, Stabilized: false, Leader: -1},
		{Graph: "cycle-64", N: 64, M: 64, Protocol: "six-state", Trial: 1,
			Seed: 2, Steps: 5000, Stabilized: false, Leader: -1},
	}
	var buf bytes.Buffer
	SummaryTable("capped", aggregate(recs)).WriteText(&buf)
	out := buf.String()
	if !strings.Contains(out, "—") {
		t.Fatalf("no dash marker for unstabilized group:\n%s", out)
	}
	if !strings.Contains(out, "0/2") {
		t.Fatalf("stab column wrong:\n%s", out)
	}
	// All four step statistics (mean, CI, median, max) must be dashes,
	// plus the time column: these records carry no timing.
	if strings.Count(out, "—") != 5 {
		t.Fatalf("want 5 dash markers, got %d:\n%s", strings.Count(out, "—"), out)
	}
}

// TestTimingFieldsRoundTripAndAggregate — elapsed_ns/queue_wait_ns
// survive the JSONL round trip, stay omitted when zero (so old logs
// re-encode unchanged), aggregate into a completed-trials mean, and the
// table renders the time column — with a dash for timing-free groups.
func TestTimingFieldsRoundTripAndAggregate(t *testing.T) {
	recs := []Record{
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 0, Seed: 1,
			Steps: 100, Stabilized: true, Leader: 0,
			ElapsedNs: 4_000_000, QueueWaitNs: 1_000},
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 1, Seed: 2,
			Steps: 120, Stabilized: true, Leader: 1,
			ElapsedNs: 2_000_000, QueueWaitNs: 3_000},
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 2, Seed: 3,
			Steps: 0, Stabilized: false, Leader: -1, Error: "boom",
			ElapsedNs: 9_000_000},
	}
	var jsonl bytes.Buffer
	if err := Write(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jsonl.String(), `"elapsed_ns":4000000`) ||
		!strings.Contains(jsonl.String(), `"queue_wait_ns":3000`) {
		t.Fatalf("timing fields missing from JSONL:\n%s", jsonl.String())
	}
	back, err := Read(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
	// Zero timing (a log from a producer predating the fields) encodes no
	// timing keys at all.
	var legacy bytes.Buffer
	if err := Write(&legacy, []Record{{Graph: "g", N: 4, M: 3, Protocol: "p",
		Steps: 5, Stabilized: true, Leader: 0}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(legacy.String(), "elapsed_ns") ||
		strings.Contains(legacy.String(), "queue_wait_ns") {
		t.Fatalf("zero timing fields encoded:\n%s", legacy.String())
	}
	// The crashed trial's 9ms must not pollute the mean over completed
	// trials: (4ms + 2ms) / 2.
	groups := aggregate(recs)
	if len(groups) != 1 || groups[0].ElapsedMeanNs != 3_000_000 {
		t.Fatalf("ElapsedMeanNs = %v, want 3e6", groups[0].ElapsedMeanNs)
	}
	var buf bytes.Buffer
	SummaryTable("timed", groups).WriteText(&buf)
	if !strings.Contains(buf.String(), "time(ms)") || !strings.Contains(buf.String(), "3") {
		t.Fatalf("time column missing:\n%s", buf.String())
	}
}

// TestReadLegacyLogWithoutTimingFields — verbatim JSONL from a
// pre-timing producer (no elapsed_ns/queue_wait_ns keys anywhere) must
// read back with zero timing, survive a write/read round trip, and
// aggregate with a zero elapsed mean rather than an error.
func TestReadLegacyLogWithoutTimingFields(t *testing.T) {
	legacy := strings.Join([]string{
		`{"graph":"cycle:8","n":8,"m":8,"protocol":"six-state","trial":0,"seed":11,"steps":40,"stabilized":true,"leader":3}`,
		`{"graph":"cycle:8","n":8,"m":8,"protocol":"six-state","trial":1,"seed":12,"steps":52,"stabilized":true,"leader":0}`,
		``,
	}, "\n")
	recs, err := Read(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if r.ElapsedNs != 0 || r.QueueWaitNs != 0 {
			t.Fatalf("record %d: timing fields %d/%d, want zero for a legacy log", i, r.ElapsedNs, r.QueueWaitNs)
		}
	}
	var rewritten bytes.Buffer
	if err := Write(&rewritten, recs); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&rewritten)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if back[i] != recs[i] {
			t.Fatalf("round trip changed record %d: %+v != %+v", i, back[i], recs[i])
		}
	}
	groups := aggregate(recs)
	if len(groups) != 1 || groups[0].ElapsedMeanNs != 0 {
		t.Fatalf("legacy aggregate ElapsedMeanNs = %v, want 0", groups[0].ElapsedMeanNs)
	}
	if groups[0].Steps.Mean != 46 {
		t.Fatalf("Steps.Mean = %v, want 46", groups[0].Steps.Mean)
	}
}

// TestBackupMeanExcludesCrashedTrials — crashed trials report Backup = 0
// vacuously and must not dilute the mean over completed trials.
func TestBackupMeanExcludesCrashedTrials(t *testing.T) {
	recs := []Record{
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 0, Seed: 1,
			Steps: 100, Stabilized: true, Leader: 0, Backup: 10},
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 1, Seed: 2,
			Steps: 120, Stabilized: true, Leader: 1, Backup: 10},
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 2, Seed: 3,
			Steps: 0, Stabilized: false, Leader: -1, Error: "boom"},
		{Graph: "g", N: 8, M: 12, Protocol: "p", Trial: 3, Seed: 4,
			Steps: 0, Stabilized: false, Leader: -1, Error: "boom"},
	}
	groups := aggregate(recs)
	if len(groups) != 1 || groups[0].BackupMean != 10 {
		t.Fatalf("BackupMean = %v, want 10 (crashed trials excluded)", groups[0].BackupMean)
	}
}

// TestAggregateAndTableSurfaceCrashedTrials — records with Error set count
// as Failed, never as stabilized, and the table flags them.
func TestAggregateAndTableSurfaceCrashedTrials(t *testing.T) {
	recs := []Record{
		{Graph: "clique-8", N: 8, M: 28, Protocol: "star-trivial", Trial: 0,
			Seed: 1, Steps: 0, Stabilized: false, Leader: -1,
			Error: `star: graph "clique-8" is not a star (degree(0)=7)`},
		{Graph: "clique-8", N: 8, M: 28, Protocol: "star-trivial", Trial: 1,
			Seed: 2, Steps: 0, Stabilized: false, Leader: -1,
			Error: `star: graph "clique-8" is not a star (degree(0)=7)`},
	}
	groups := aggregate(recs)
	if len(groups) != 1 || groups[0].Failed != 2 || groups[0].Stabilized != 0 {
		t.Fatalf("groups %+v", groups)
	}
	if groups[0].BackupMean != 0 {
		t.Fatalf("all-crashed group BackupMean = %v, want 0", groups[0].BackupMean)
	}
	var buf bytes.Buffer
	SummaryTable("crashes", groups).WriteText(&buf)
	if !strings.Contains(buf.String(), "(2 err)") {
		t.Fatalf("crash count missing from table:\n%s", buf.String())
	}
	// The error field must survive a JSONL round trip.
	var jsonl bytes.Buffer
	if err := Write(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || !back[0].Failed() || back[0].Error != recs[0].Error {
		t.Fatalf("round-tripped records %+v", back)
	}
}

// TestAccumulatorMatchesAggregate — an Accumulator that reported its
// groups midway and then took the rest of the records reports exactly
// what one fed every record at once does.
func TestAccumulatorMatchesAggregate(t *testing.T) {
	recs := append(sample(),
		Record{Graph: "clique-16", N: 16, M: 120, Protocol: "six-state", Trial: 3,
			Seed: 14, Steps: 0, Stabilized: false, Leader: -1, Error: "boom"},
	)
	acc := NewAccumulator()
	for _, r := range recs[:2] {
		acc.Add(r)
	}
	// An intermediate Groups call must not corrupt later aggregation.
	if mid := acc.Groups(); len(mid) != 1 || mid[0].Trials != 2 {
		t.Fatalf("intermediate groups %+v", mid)
	}
	for _, r := range recs[2:] {
		acc.Add(r)
	}
	got := acc.Groups()
	want := aggregate(recs)
	if len(got) != len(want) {
		t.Fatalf("got %d groups, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("group %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestForEachStreams — ForEach visits records in order without buffering
// and stops on the callback's error.
func TestForEachStreams(t *testing.T) {
	var jsonl bytes.Buffer
	if err := Write(&jsonl, sample()); err != nil {
		t.Fatal(err)
	}
	var seen []Record
	if err := ForEach(bytes.NewReader(jsonl.Bytes()), func(r Record) error {
		seen = append(seen, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(sample()) || seen[0] != sample()[0] {
		t.Fatalf("ForEach saw %d records", len(seen))
	}
	stop := errTest
	n := 0
	err := ForEach(bytes.NewReader(jsonl.Bytes()), func(Record) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if err != stop || n != 2 {
		t.Fatalf("ForEach err %v after %d records, want stop after 2", err, n)
	}
}

var errTest = errors.New("stop")
