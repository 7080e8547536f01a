// Package deadexport flags exported functions and methods in the
// module-root package and under internal/ that no non-test file in the
// module refers to. Such code is kept alive only by its own tests (and,
// at the root, Example functions): it costs reading and upkeep, and
// nothing a user runs depends on it. Delete it, move it into the
// _test.go file of the package whose tests need it, or keep it with
// "//popcheck:ignore deadexport <reason>" when another package's tests
// call it or, at the root, when it is a documented library entry point
// (the reason says which). Programs under examples/ count as callers.
//
// References come from types.Info.Uses over every package the checker
// loads (cmd/popcheck always loads the whole module for this), with a
// generic function or method counted as used through any of its
// instantiations. A method also counts as used when any interface
// declared in the module, or in a package a module package imports
// directly, has a method of that name, since it may be called through
// that interface (String through fmt.Stringer, Import through
// go/types.Importer).
package deadexport

import (
	"go/ast"
	"strings"

	"popgraph/internal/analyzers"
)

// Analyzer is the deadexport pass.
var Analyzer = &analyzers.Analyzer{
	Name: "deadexport",
	Doc:  "flag exported functions and methods in the root package and under internal/ that no non-test file in the module references",
	Run:  run,
}

func run(pass *analyzers.Pass) error {
	// The root package is the public facade; cmd/ and examples/ are
	// main packages, which export nothing another package can call.
	if pass.RelPath != "" && pass.RelPath != "internal" && !strings.HasPrefix(pass.RelPath, "internal/") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			kind := "function"
			if fn.Recv != nil {
				if pass.Uses.InterfaceMethod(fn.Name.Name) {
					continue
				}
				kind = "method"
			}
			if obj := pass.TypesInfo.Defs[fn.Name]; obj != nil && !pass.Uses.Used(obj) {
				pass.Reportf(fn.Name.Pos(), "exported %s %s is referenced by no non-test file in the module", kind, fn.Name.Name)
			}
		}
	}
	return nil
}
