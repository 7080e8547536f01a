package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

type item struct {
	Name string `json:"name"`
	N    int    `json:"n,omitempty"`
}

// recorder counts Write and Close calls and fails every Write from the
// failAt-th on (failAt <= 0 never fails).
type recorder struct {
	writes [][]byte
	failAt int
	closes int
}

var errDisk = errors.New("disk full")

func (r *recorder) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	if r.failAt > 0 && len(r.writes) >= r.failAt {
		return 0, errDisk
	}
	return len(p), nil
}

func (r *recorder) Close() error {
	r.closes++
	return nil
}

func TestWriterOneWritePerValueSameBytesAsEncoder(t *testing.T) {
	in := []item{{Name: "a<b", N: 1}, {Name: "é"}, {Name: ""}}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	rec := &recorder{}
	w := NewWriter(rec)
	for _, v := range in {
		if err := w.Write(v); err != nil {
			t.Fatal(err)
		}
		enc.Encode(v)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != len(in) || rec.closes != 1 {
		t.Fatalf("%d writes and %d closes for %d values", len(rec.writes), rec.closes, len(in))
	}
	if got := bytes.Join(rec.writes, nil); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("bytes differ from json.Encoder's:\n got %q\nwant %q", got, want.Bytes())
	}
	for i, line := range rec.writes {
		if bytes.IndexByte(line, '\n') != len(line)-1 {
			t.Fatalf("write %d is not exactly one line: %q", i, line)
		}
	}
}

func TestWriterLatchesFirstError(t *testing.T) {
	rec := &recorder{failAt: 2}
	w := NewWriter(rec)
	if err := w.Write(item{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(item{Name: "fails"}); !errors.Is(err, errDisk) {
		t.Fatalf("second write: %v, want %v", err, errDisk)
	}
	if err := w.Write(item{Name: "dropped"}); !errors.Is(err, errDisk) {
		t.Fatalf("write after the failure: %v, want the latched %v", err, errDisk)
	}
	if len(rec.writes) != 2 {
		t.Fatalf("%d writes reached the sink, want 2", len(rec.writes))
	}
	if err := w.Close(); !errors.Is(err, errDisk) {
		t.Fatalf("Close: %v, want the latched %v", err, errDisk)
	}
	if err := w.Close(); !errors.Is(err, errDisk) || rec.closes != 1 {
		t.Fatalf("second Close: %v after %d closes", err, rec.closes)
	}
}

func TestWriterRefusesLineOverMaxLine(t *testing.T) {
	rec := &recorder{}
	w := NewWriter(rec)
	// Encoded with quotes, braces and newline, this is MaxLine+1 bytes.
	long := item{Name: strings.Repeat("x", MaxLine-len(`{"name":""}`))}
	if err := w.Write(long); !errors.Is(err, ErrTooLong) {
		t.Fatalf("over-cap write: %v, want %v", err, ErrTooLong)
	}
	if len(rec.writes) != 0 {
		t.Fatalf("an over-cap line reached the sink")
	}

	// One byte shorter fits, and the reader takes it back.
	var buf bytes.Buffer
	fits := item{Name: long.Name[1:]}
	if err := NewWriter(&buf).Write(fits); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll[item](&buf)
	if err != nil || len(back) != 1 || back[0] != fits {
		t.Fatalf("reading back a MaxLine line: %d values, %v", len(back), err)
	}
}

func TestForEachSkipsBlankLinesAndNamesBadLine(t *testing.T) {
	in := "\n{\"name\":\"a\",\"n\":1}\n  \t\n{\"name\":\"b\"}\r\n\n"
	got, err := ReadAll[item](strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (item{"a", 1}) || got[1] != (item{"b", 0}) {
		t.Fatalf("got %+v", got)
	}

	_, err = ReadAll[item](strings.NewReader("{\"name\":\"a\"}\n\n{\"name\":\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed line 3: %v", err)
	}
	over := "{\"name\":\"a\"}\n" + strings.Repeat("x", MaxLine+1) + "\n"
	if _, err := ReadAll[item](strings.NewReader(over)); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("over-cap line 2: %v", err)
	}
}

func TestForEachReturnsCallbackErrorAsIs(t *testing.T) {
	stop := errors.New("stop")
	n := 0
	err := ForEach(strings.NewReader("{}\n{}\n{}\n"), func(item) error {
		n++
		if n == 2 {
			return stop
		}
		return nil
	})
	if err != stop || n != 2 {
		t.Fatalf("err %v after %d values, want stop after 2", err, n)
	}
	if err := ForEach(strings.NewReader(""), func(item) error { return stop }); err != nil {
		t.Fatalf("empty stream: %v", err)
	}
}
