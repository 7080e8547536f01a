// Popcheck is the repository's lint: a multichecker running the six
// analyzers in internal/analyzers/suite over module packages.
//
// Usage:
//
//	popcheck [-list] [-disable name,name] [packages]
//
// Packages default to ./... and accept the loader's pattern forms
// ("./internal/sim/...", "popgraph/internal/results", ...). The whole
// module is always loaded and checked, because deadexport needs every
// reference in it; only findings in the named packages are printed.
// Findings print one per line as
//
//	file:line:col: analyzer: message
//
// and the exit status is 0 when clean, 1 when there are findings, and
// 2 when the module fails to load or type-check. Suppress individual
// findings with "//popcheck:ignore <analyzer> <reason>" on or above the
// offending line; see package popgraph/internal/analyzers for the full
// directive syntax.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"popgraph/internal/analyzers"
	"popgraph/internal/analyzers/suite"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("popcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "print the analyzers and exit")
	disable := fs.String("disable", "", "comma-separated analyzer names to skip")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	active := suite.Analyzers()
	if *list {
		for _, a := range active {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(*disable, ",") {
			skip[strings.TrimSpace(name)] = true
		}
		kept := active[:0]
		for _, a := range active {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		active = kept
	}

	loader, err := analyzers.NewLoader("")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	targets, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	inTarget := make(map[string]bool)
	for _, pkg := range targets {
		for _, f := range pkg.Files {
			inTarget[pkg.Fset.Position(f.Package).Filename] = true
		}
	}
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "popcheck: %s: %v\n", pkg.Path, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	diags, err := analyzers.Check(pkgs, active)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	found := 0
	for _, d := range diags {
		if !inTarget[d.Pos.Filename] {
			continue
		}
		found++
		fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n",
			relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if found > 0 {
		return 1
	}
	return 0
}

// relPath shortens an absolute file name to be relative to the working
// directory when that makes it shorter and does not escape upward.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || strings.HasPrefix(rel, "..") {
		return name
	}
	return rel
}
