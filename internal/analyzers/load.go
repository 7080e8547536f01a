// Package loading for the analyzer framework: parse and type-check
// module packages with nothing but the standard library. Imports of
// other module packages are resolved by mapping the import path onto
// the module directory tree and recursing; standard-library imports go
// through go/importer's source importer (which type-checks GOROOT
// sources and therefore works without pre-built export data or network
// access). Only non-test files matching the host's build constraints
// are loaded: the determinism contract lives in shipping code, tests
// legitimately use wall clocks and hard-coded seeds, and
// platform-split files (x_linux.go next to x_other.go) would otherwise
// collide as duplicate declarations.

package analyzers

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; RelPath the module-relative form ("" for
	// the module root); Dir the absolute directory.
	Path    string
	RelPath string
	Dir     string
	Fset    *token.FileSet
	// Files holds the package's non-test syntax trees in file-name order.
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors collects type-checking problems. Analysis results for a
	// package with type errors are unreliable; drivers should surface
	// them and fail.
	TypeErrors []error
}

// A Loader resolves and type-checks packages of one module. It caches
// by import path, so loading ./... type-checks each package exactly
// once however often it is imported.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod; ModulePath
	// the declared module path.
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package
}

// NewLoader locates the enclosing module by walking from dir (or the
// working directory when dir is "") up to a go.mod file.
func NewLoader(dir string) (*Loader, error) {
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		dir = wd
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analyzers: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analyzers: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*Package),
	}, nil
}

// Load resolves patterns to packages and type-checks them. Patterns are
// interpreted relative to the module root: "./..." (every package),
// "./dir/..." (a subtree), "./dir" (one package), or import paths with
// the module-path prefix in the same three forms. Results are in
// deterministic (path-sorted) order, deduplicated.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rels := make(map[string]bool)
	for _, pat := range patterns {
		rel, recursive, err := l.relPattern(pat)
		if err != nil {
			return nil, err
		}
		if !recursive {
			rels[rel] = true
			continue
		}
		subtree, err := l.walk(rel)
		if err != nil {
			return nil, err
		}
		for _, r := range subtree {
			rels[r] = true
		}
	}
	ordered := make([]string, 0, len(rels))
	for r := range rels {
		ordered = append(ordered, r)
	}
	sort.Strings(ordered)
	pkgs := make([]*Package, 0, len(ordered))
	for _, rel := range ordered {
		pkg, err := l.loadRel(rel)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// relPattern normalizes one CLI pattern to a module-relative directory
// plus a "/..." flag.
func (l *Loader) relPattern(pat string) (rel string, recursive bool, err error) {
	p := strings.TrimSuffix(pat, "/...")
	recursive = p != pat
	switch {
	case p == "." || p == "./":
		rel = ""
	case strings.HasPrefix(p, "./"):
		rel = strings.TrimPrefix(p, "./")
	case p == l.ModulePath:
		rel = ""
	case strings.HasPrefix(p, l.ModulePath+"/"):
		rel = strings.TrimPrefix(p, l.ModulePath+"/")
	case pat == "...":
		rel = ""
	default:
		// A bare relative directory like "internal/sim".
		rel = p
	}
	rel = filepath.ToSlash(filepath.Clean(rel))
	if rel == "." {
		rel = ""
	}
	if strings.HasPrefix(rel, "..") {
		return "", false, fmt.Errorf("analyzers: pattern %q escapes the module", pat)
	}
	return rel, recursive, nil
}

// walk returns every module-relative package directory under rel,
// skipping testdata, hidden and underscore-prefixed directories.
func (l *Loader) walk(rel string) ([]string, error) {
	var out []string
	start := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if names, _ := goFileNames(path); len(names) > 0 {
			r, err := filepath.Rel(l.ModuleRoot, path)
			if err != nil {
				return err
			}
			out = append(out, filepath.ToSlash(filepath.Clean(r)))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analyzers: walking %q: %w", rel, err)
	}
	for i, r := range out {
		if r == "." {
			out[i] = ""
		}
	}
	return out, nil
}

// goFileNames lists dir's non-test .go files in sorted order, filtered
// by the host's build constraints (//go:build lines and _GOOS/_GOARCH
// name suffixes) exactly as go build would select them.
func goFileNames(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil || !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// loadRel loads the package in the module-relative directory rel.
func (l *Loader) loadRel(rel string) (*Package, error) {
	path := l.ModulePath
	if rel != "" {
		path = l.ModulePath + "/" + rel
	}
	return l.loadPath(path)
}

// loadPath loads an import path of this module, through the cache.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.loadDir(dir, path, rel)
}

// LoadDirAs type-checks the single directory dir (which need not be
// under the module root) as if it had the given import path. The
// analyzer test harness uses it to place testdata packages at
// scope-relevant paths like "popgraph/internal/sim/x".
func (l *Loader) LoadDirAs(dir, path string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.loadDir(abs, path, rel)
}

func (l *Loader) loadDir(dir, path, rel string) (*Package, error) {
	names, err := goFileNames(dir)
	if err != nil {
		return nil, fmt.Errorf("analyzers: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analyzers: no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analyzers: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:    path,
		RelPath: rel,
		Dir:     dir,
		Fset:    l.fset,
		Files:   files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	// Publish before type-checking so import cycles terminate (go/types
	// reports the cycle itself as a type error).
	l.pkgs[path] = pkg
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, pkg.TypesInfo)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

// loaderImporter adapts the Loader to types.Importer: module-internal
// paths recurse through the cache, everything else (the standard
// library) goes to the source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analyzers: import cycle through %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
