package sweep

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseJSON fuzzes the spec-file boundary: any bytes give a spec or
// an error, never a panic, and an accepted spec re-marshals and re-parses
// to itself and passes the trial-total check. The target never calls
// GraphSpecs or Build, whose output grows with templates × sizes rather
// than with the input. The seed corpus in testdata/fuzz/FuzzParseJSON
// covers a valid spec, an unknown key, the removed "batch" key, trailing
// content, trials over the bound, a negative max_steps, an empty
// scheduler, and a file: template containing N.
func FuzzParseJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseJSON(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshaling an accepted spec: %v", err)
		}
		again, err := ParseJSON(out)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", out, err)
		}
		back, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshaling a re-parsed spec: %v", err)
		}
		if !bytes.Equal(back, out) {
			t.Fatalf("round trip changed the spec: %s became %s", out, back)
		}
		if cells := s.CellCount(); cells < 1 || cells > maxTrials {
			t.Fatalf("accepted spec has %d cells", cells)
		}
		if err := s.checkTrialTotal(); err != nil {
			t.Fatalf("accepted spec fails the trial-total check: %v", err)
		}
	})
}
