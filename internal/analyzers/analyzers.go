// Package analyzers is a small, dependency-free static-analysis
// framework in the shape of golang.org/x/tools/go/analysis, built on the
// standard library's go/ast + go/types only (the toolchain this module
// builds in has no network access to fetch x/tools, and the module
// itself is deliberately dependency-free). It exists to statically
// enforce the repository's byte-identical determinism contract: same
// spec + seed ⇒ same Result, observer sequence and post-run generator
// state. Runtime tests (TestPlanEquivalenceMatrix) catch violations
// late; five of the six analyzers under this directory catch the classic
// ways of breaking the contract — wall-clock reads, global randomness,
// unsorted map iteration, ad-hoc seed derivation, allocation or dynamic
// dispatch sneaking into a compiled kernel, callbacks invoked under a
// mutex — at lint time, before a poisoned result is ever cached. The
// sixth, deadexport, keeps exported code that only tests call from
// building up.
//
// An Analyzer inspects one type-checked package at a time through a
// Pass and reports Diagnostics. Check also builds one Uses index over
// every package it is given, so a pass can ask what the rest of the
// module refers to. Suppression is comment-driven and
// always names the analyzer, so every exception is grep-able:
//
//	//popcheck:ignore <name>[,<name>...] [reason]   line-level (this line or the next)
//	//popcheck:allow <name>[,<name>...] [reason]    file-level
//	//popcheck:kernel                               marks a function as an engine hot-loop kernel
//
// cmd/popcheck is the multichecker driver; internal/analyzers/suite
// fixes the analyzer set it runs.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named, self-contained check. Run inspects a single
// package via its Pass and reports findings with Pass.Reportf; returning
// an error aborts the whole checker run (reserved for internal failures,
// not findings).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// popcheck:ignore / popcheck:allow directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by popcheck -list.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass hands one type-checked package to an analyzer. The same
// package is shared (read-only) by every analyzer in a suite.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test syntax trees, sorted by file name.
	Files []*ast.File
	// Pkg and TypesInfo are the go/types results. TypesInfo always has
	// Types, Defs, Uses and Selections populated.
	Pkg       *types.Package
	TypesInfo *types.Info
	// PkgPath is the import path; RelPath is the module-relative form
	// ("" for the module root, "internal/sim", ...). Scope decisions key
	// off RelPath so testdata packages can be loaded "as" a contract
	// path.
	PkgPath string
	RelPath string
	// Uses indexes references across every package handed to Check.
	Uses *Uses

	directives *directiveIndex
	diags      *[]Diagnostic
}

// Reportf records a finding at pos unless a popcheck:ignore or
// popcheck:allow directive suppresses this analyzer there.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Inspect walks every file of the package in file order, calling f as
// ast.Inspect does.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// PkgFuncCall resolves call to (importPath, funcName) when its callee is
// a selector on an imported package name — e.g. time.Now() resolves to
// ("time", "Now") regardless of import aliasing. It returns ("", "")
// for method calls, locally defined functions, builtins and
// conversions.
func (p *Pass) PkgFuncCall(call *ast.CallExpr) (path, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pkgName, ok := p.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pkgName.Imported().Path(), sel.Sel.Name
}

// FuncMarked reports whether fn's doc comment carries the
// //popcheck:<marker> directive.
func FuncMarked(fn *ast.FuncDecl, marker string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if verb, _, ok := parseDirective(c.Text); ok && verb == marker {
			return true
		}
	}
	return false
}

// parseDirective splits a "//popcheck:verb args" comment into its verb
// and argument string. Directive comments have no space after "//", per
// Go convention for machine-readable comments.
func parseDirective(text string) (verb, args string, ok bool) {
	rest, found := strings.CutPrefix(text, "//popcheck:")
	if !found {
		return "", "", false
	}
	verb, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(args), verb != ""
}

// directiveIndex is the per-package suppression table, built once from
// every file's comments and shared by all passes over that package.
type directiveIndex struct {
	// line maps analyzer name to "file:line" keys on which it is
	// suppressed (the directive's own line and the one after it, so a
	// trailing comment and a comment-above both work).
	line map[string]map[string]bool
	// file maps analyzer name to files in which it is fully disabled.
	file map[string]map[string]bool
}

func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{
		line: make(map[string]map[string]bool),
		file: make(map[string]map[string]bool),
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, args, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(args, " ")
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					switch verb {
					case "ignore":
						if idx.line[name] == nil {
							idx.line[name] = make(map[string]bool)
						}
						idx.line[name][lineKey(pos.Filename, pos.Line)] = true
						idx.line[name][lineKey(pos.Filename, pos.Line+1)] = true
					case "allow":
						if idx.file[name] == nil {
							idx.file[name] = make(map[string]bool)
						}
						idx.file[name][pos.Filename] = true
					}
				}
			}
		}
	}
	return idx
}

func lineKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

func (idx *directiveIndex) suppressed(analyzer string, pos token.Position) bool {
	return idx.file[analyzer][pos.Filename] ||
		idx.line[analyzer][lineKey(pos.Filename, pos.Line)]
}

// Uses is the module-wide reference index Check builds from the
// packages it is given: the objects their non-test files refer to, and
// the method names of every interface declared in them or in a package
// one of them imports directly.
type Uses struct {
	objs    map[types.Object]bool
	methods map[string]bool
}

func buildUses(pkgs []*Package) *Uses {
	u := &Uses{objs: make(map[types.Object]bool), methods: make(map[string]bool)}
	addMethods := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				u.methods[iface.Method(i).Name()] = true
			}
		}
	}
	addMethods(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	addImport := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addMethods(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			u.objs[origin(obj)] = true
		}
		// Every interface the package declares, at any scope, or writes
		// as a literal appears here as a type expression.
		for _, tv := range pkg.TypesInfo.Types {
			if tv.IsType() {
				addMethods(tv.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			addImport(imp)
		}
	}
	return u
}

// origin maps an object reached through a generic instantiation back
// to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// Used reports whether a non-test file of a checked package refers to
// obj, directly or through an instantiation of it.
func (u *Uses) Used(obj types.Object) bool { return u.objs[origin(obj)] }

// InterfaceMethod reports whether some interface declared in a checked
// package, or in a package one of them imports directly, has a method
// called name: a method of that name may be called through the
// interface.
func (u *Uses) InterfaceMethod(name string) bool { return u.methods[name] }

// Check runs each analyzer over each package and returns all
// diagnostics sorted by position then analyzer name. Analyzer errors
// (internal failures) abort the run.
func Check(pkgs []*Package, as []*Analyzer) ([]Diagnostic, error) {
	uses := buildUses(pkgs)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := buildDirectiveIndex(pkg.Fset, pkg.Files)
		for _, a := range as {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				PkgPath:    pkg.Path,
				RelPath:    pkg.RelPath,
				Uses:       uses,
				directives: idx,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzers: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}
