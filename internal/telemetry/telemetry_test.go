package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// lcg is a tiny deterministic generator for test sample streams; the
// package under test must not depend on internal/xrand, and tests keep
// that property.
type lcg uint64

func (l *lcg) next() int64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return int64(uint64(*l) >> 11)
}

func TestBucketOfLo(t *testing.T) {
	cases := []struct {
		v int64
		b int
	}{{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 62, 63}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.b {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.b)
		}
	}
	for i := 0; i < histBuckets; i++ {
		if lo := bucketLo(i); bucketOf(lo) != i && (i != 1 || lo != 1) {
			if bucketOf(lo) != i {
				t.Errorf("bucketOf(bucketLo(%d)) = %d, want %d", i, bucketOf(lo), i)
			}
		}
	}
}

// TestHistogramMergeOfPartsIsWhole is the core mergeability property:
// splitting a sample stream across k histograms and merging their
// snapshots yields exactly the snapshot of one histogram fed the whole
// stream, regardless of split or merge order.
func TestHistogramMergeOfPartsIsWhole(t *testing.T) {
	g := lcg(7)
	const n, parts = 10_000, 7
	var whole HistSnapshot
	var shards [parts]HistSnapshot
	for i := 0; i < n; i++ {
		v := g.next() % (1 << 40)
		if i%13 == 0 {
			v = 0 // exercise the non-positive bucket
		}
		whole.Add(v)
		shards[i%parts].Add(v)
	}
	merged := shards[0]
	for i := 1; i < parts; i++ {
		merged = merged.Merge(shards[i])
	}
	if want := whole; !reflect.DeepEqual(merged, want) {
		t.Fatalf("merge of parts != whole:\n got %+v\nwant %+v", merged, want)
	}
}

func TestHistogramMergeEmptyIdentity(t *testing.T) {
	var s HistSnapshot
	for _, v := range []int64{5, 90, 3000, 1} {
		s.Add(v)
	}
	var zero HistSnapshot
	if got := s.Merge(zero); !reflect.DeepEqual(got, s) {
		t.Errorf("s.Merge(zero) = %+v, want %+v", got, s)
	}
	if got := zero.Merge(s); !reflect.DeepEqual(got, s) {
		t.Errorf("zero.Merge(s) = %+v, want %+v", got, s)
	}
	if got := zero.Merge(zero); !reflect.DeepEqual(got, zero) {
		t.Errorf("zero.Merge(zero) = %+v, want zero", got)
	}
}

func TestHistogramStats(t *testing.T) {
	var s HistSnapshot
	for v := int64(1); v <= 100; v++ {
		s.Add(v)
	}
	if s.Count != 100 || s.Sum != 5050 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestSnapshotMergeProperties checks Counters-level mergeability: the
// zero Snapshot is an identity and merging shard snapshots in any
// grouping equals the snapshot of the combined stream.
func TestSnapshotMergeProperties(t *testing.T) {
	feed := func(c *Counters, start, runs int, kernel string) {
		for i := start; i < start+runs; i++ {
			c.AddRun(1000+int64(i), 10, 3, 1, 2, kernel, false)
			c.AddTrial(int64(500+i), int64(i%7), i%2 == 0, false)
		}
	}
	var whole, a, b, cc Counters
	feed(&whole, 0, 5, "dense-uniform/table")
	feed(&whole, 5, 3, "generic/step")
	feed(&a, 0, 5, "dense-uniform/table")
	feed(&b, 5, 2, "generic/step")
	feed(&cc, 7, 1, "generic/step")

	want := whole.Snapshot()
	left := a.Snapshot().Merge(b.Snapshot()).Merge(cc.Snapshot())
	right := a.Snapshot().Merge(b.Snapshot().Merge(cc.Snapshot()))
	if !reflect.DeepEqual(left, want) || !reflect.DeepEqual(right, want) {
		t.Fatalf("shard merge != whole:\n left %+v\nright %+v\n want %+v", left, right, want)
	}
	var zero Snapshot
	if got := want.Merge(zero); !reflect.DeepEqual(got, want) {
		t.Errorf("merge with zero changed snapshot:\n got %+v\nwant %+v", got, want)
	}

	// Counters.Merge(shard snapshot) must agree with Snapshot.Merge.
	var folded Counters
	folded.Merge(a.Snapshot())
	folded.Merge(b.Snapshot())
	folded.Merge(cc.Snapshot())
	if got := folded.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counters.Merge != whole:\n got %+v\nwant %+v", got, want)
	}
}

// TestCountersConcurrent hammers one shared Counters from NumCPU
// workers; run under -race this is the data-race gate, and the final
// totals check that no increment is lost.
func TestCountersConcurrent(t *testing.T) {
	var c Counters
	workers := runtime.NumCPU()
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kernel := fmt.Sprintf("kernel-%d", w%3)
			for i := 0; i < perWorker; i++ {
				c.AddRun(10, 2, 1, 1, 1, kernel, false)
				c.AddTrial(int64(i+1), int64(i), i%2 == 0, i%97 == 0)
			}
		}(w)
	}
	wg.Wait()
	s := c.Snapshot()
	total := int64(workers * perWorker)
	if s.StepsExecuted != 10*total || s.TrialsRun != total || s.TrialNs.Count != total {
		t.Fatalf("lost updates: %+v (want %d trials)", s, total)
	}
	var runs int64
	for _, n := range s.KernelDispatch {
		runs += n
	}
	if runs != total {
		t.Fatalf("kernel dispatch total %d, want %d", runs, total)
	}
}

// TestLiveSnapshotConsistent is the /metrics contract: a Snapshot taken
// while workers merge shards into the shared Counters is a consistent
// cut, so every read's trial count matches its histograms, its step
// total and its kernel tally.
func TestLiveSnapshotConsistent(t *testing.T) {
	var c Counters
	const writers, shards, perShard = 4, 20_000, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < shards; i++ {
				var shard Counters
				for k := 0; k < perShard; k++ {
					shard.AddRun(100, 2, 1, 0, 0, "dense-uniform/table", false)
					shard.AddTrial(int64(1+k), int64(k), true, false)
				}
				c.Merge(shard.Snapshot())
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	sumBuckets := func(h HistSnapshot) (n int64) {
		for _, b := range h.Buckets {
			n += b.Count
		}
		return n
	}
	reads, bad := 0, 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last read after the writers quiesce
		default:
		}
		s := c.Snapshot()
		reads++
		var kernels int64
		for _, n := range s.KernelDispatch {
			kernels += n
		}
		tr := s.TrialsRun
		if s.TrialNs.Count != tr || s.QueueWaitNs.Count != tr ||
			sumBuckets(s.TrialNs) != tr || sumBuckets(s.QueueWaitNs) != tr ||
			s.StepsExecuted != 100*tr || kernels != tr {
			if bad == 0 {
				t.Errorf("inconsistent read: trials %d, trial_ns %d (buckets %d), queue_wait_ns %d (buckets %d), steps %d, kernels %d",
					tr, s.TrialNs.Count, sumBuckets(s.TrialNs), s.QueueWaitNs.Count, sumBuckets(s.QueueWaitNs),
					s.StepsExecuted, kernels)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d live reads were inconsistent", bad, reads)
	}
	if got := c.Snapshot().TrialsRun; got != writers*shards*perShard {
		t.Fatalf("trials_run %d, want %d", got, writers*shards*perShard)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	var c Counters
	c.AddRun(123, 4, 5, 6, 7, "weighted/step", true)
	c.AddTrial(999, 11, true, false)
	want := c.Snapshot()
	var buf bytes.Buffer
	if err := want.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestJournalSpansAndNilSafety(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	end := j.Span("compile", map[string]any{"cells": 3.0})
	j.Span("checkpoint", nil)()
	end()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Span != "checkpoint" || recs[1].Span != "compile" {
		t.Fatalf("records: %+v", recs)
	}
	if recs[1].DurNs < 0 || recs[1].Attrs["cells"] != 3.0 {
		t.Fatalf("span record: %+v", recs[1])
	}

	var nilJ *Journal
	nilJ.Span("x", nil)()
	if err := nilJ.Close(); err != nil {
		t.Errorf("nil journal Close: %v", err)
	}
}

func TestTrajectoryLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewTrajectoryLog(&buf)
	gap := 4
	in := []TrajectorySample{
		{Trial: 0, Step: 0, Leaders: 9, Gap: &gap},
		{Trial: 0, Step: 64, Leaders: 1, Final: true},
	}
	l.WriteTrial(in)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var out []TrajectorySample
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var s TrajectorySample
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	var nilLog *TrajectoryLog
	nilLog.WriteTrial(in)
	if err := nilLog.Close(); err != nil {
		t.Errorf("nil log Close: %v", err)
	}
}

func TestDebugServerServesMetrics(t *testing.T) {
	var c Counters
	c.AddRun(42, 1, 1, 0, 0, "dense-uniform/table", false)
	addr, stop, err := StartDebugServer("127.0.0.1:0", &c)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for _, path := range []string{"/metrics", "/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if s.StepsExecuted != 42 {
			t.Fatalf("%s: steps %d, want 42", path, s.StepsExecuted)
		}
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof endpoint: %v", resp.Status)
	}
}

func TestSnapshotDerivedStats(t *testing.T) {
	s := Snapshot{StepsExecuted: 2_000_000,
		TrialNs: HistSnapshot{Count: 2, Sum: 2e9}}
	if got := s.StepsPerSec(); got != 1e6 {
		t.Errorf("StepsPerSec = %v, want 1e6", got)
	}
	if (Snapshot{}).StepsPerSec() != 0 {
		t.Error("empty snapshot derived stats should be 0")
	}
	s.KernelDispatch = map[string]int64{"b/x": 2, "a/y": 1}
	if mix := s.KernelMix(); !reflect.DeepEqual(mix, []string{"a/y:1", "b/x:2"}) {
		t.Errorf("KernelMix = %v", mix)
	}
}
