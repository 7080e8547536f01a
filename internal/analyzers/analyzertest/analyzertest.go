// Package analyzertest runs one analyzer over a testdata package and
// compares its diagnostics against // want annotations, in the style of
// golang.org/x/tools/go/analysis/analysistest (which the module cannot
// depend on — see internal/analyzers).
//
// Annotation syntax: a trailing comment on the line the diagnostic is
// expected at, carrying one quoted regular expression per expected
// diagnostic:
//
//	x := time.Now() // want `detrand: call to time\.Now`
//	m[k] = v        // no annotation: any diagnostic here fails the test
//
// Both backquoted and double-quoted regexps are accepted. A line may
// carry several want clauses for several expected diagnostics.
//
//popcheck:allow deadexport a test harness: only the analyzers' tests call it
package analyzertest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"popgraph/internal/analyzers"
)

var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// Run loads dir as a package with import path asPath (so scope-aware
// analyzers see a module-relative location of the test's choosing),
// runs a, and reports any mismatch between the diagnostics and the
// // want annotations as test errors. Type errors in the testdata are
// fatal: analysis over broken code proves nothing.
func Run(t *testing.T, a *analyzers.Analyzer, dir, asPath string) {
	t.Helper()
	l, err := analyzers.NewLoader("")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDirAs(dir, asPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("testdata %s has type errors: %v", dir, pkg.TypeErrors)
	}
	diags, err := analyzers.Check([]*analyzers.Package{pkg}, []*analyzers.Analyzer{a})
	if err != nil {
		t.Fatalf("check: %v", err)
	}

	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		ws := wants[key]
		// Patterns match the "analyzer: message" form so annotations
		// document which pass fires.
		msg := d.Analyzer + ": " + d.Message
		matched := false
		for i, w := range ws {
			if w != nil && w.MatchString(msg) {
				ws[i] = nil // each want matches exactly one diagnostic
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if w != nil {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w)
			}
		}
	}
}

// collectWants parses every // want comment in the package into
// file:line → expected-message regexps.
func collectWants(t *testing.T, pkg *analyzers.Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				clauses := wantRe.FindAllString(text, -1)
				if len(clauses) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, clause := range clauses {
					pattern := strings.Trim(clause, "`")
					if strings.HasPrefix(clause, `"`) {
						unq, err := strconv.Unquote(clause)
						if err != nil {
							t.Fatalf("%s: bad want clause %s: %v", pos, clause, err)
						}
						pattern = unq
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %s: %v", pos, clause, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}
