// Package detrand forbids wall-clock and global-randomness sources
// inside the determinism-contract packages. The contract — same spec +
// seed ⇒ byte-identical Result, observer sequence and post-run
// generator state — only holds while every source of nondeterminism
// flows through an explicit *xrand.Rand; one stray time.Now or
// math/rand call in a contract package silently poisons any cache
// keyed by (spec hash, seed).
//
// Flagged inside contract packages:
//   - importing math/rand, math/rand/v2 or crypto/rand (process-global
//     or OS-backed randomness; xrand is the only sanctioned generator);
//   - calling the wall-clock or timer functions of package time
//     (time.Now, Since, Until, After, AfterFunc, Tick, NewTimer,
//     NewTicker, Sleep). Pure types and constants of package time
//     (Duration and friends) stay legal.
//
// Telemetry and other deliberately time-aware files inside a contract
// package opt out with a file-level "//popcheck:allow detrand" comment;
// single intentional sites use "//popcheck:ignore detrand <reason>".
package detrand

import (
	"go/ast"
	"strings"

	"popgraph/internal/analyzers"
)

// contractPaths are the module-relative package paths bound by the
// determinism contract. An entry ending in "/" covers the whole
// subtree.
var contractPaths = []string{
	"internal/sim",
	"internal/core",
	"internal/xrand",
	"internal/graph",
	"internal/sweep",
	"internal/snapshot",
	"internal/results",
	"internal/shard",
	"internal/jsonl",
	"internal/protocols/",
}

// forbiddenImports are packages that must never be imported from
// contract code.
var forbiddenImports = map[string]string{
	"math/rand":    "process-global randomness",
	"math/rand/v2": "process-global randomness",
	"crypto/rand":  "OS-backed randomness",
}

// clockFuncs are the package time functions that read the wall clock or
// start timers.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// InScope reports whether the module-relative package path rel is bound
// by the determinism contract.
func InScope(rel string) bool {
	for _, c := range contractPaths {
		if strings.HasSuffix(c, "/") {
			if strings.HasPrefix(rel, c) {
				return true
			}
		} else if rel == c || strings.HasPrefix(rel, c+"/") {
			return true
		}
	}
	return false
}

// Analyzer is the detrand pass.
var Analyzer = &analyzers.Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock reads and global randomness in determinism-contract packages " +
		"(internal/{sim,core,xrand,graph,sweep,snapshot} and internal/protocols/...)",
	Run: run,
}

func run(pass *analyzers.Pass) error {
	if !InScope(pass.RelPath) {
		return nil
	}
	pass.Inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			path := strings.Trim(n.Path.Value, `"`)
			if why, bad := forbiddenImports[path]; bad {
				pass.Reportf(n.Pos(),
					"import of %s (%s) in determinism-contract package %q; draw through an explicit *xrand.Rand instead",
					path, why, pass.RelPath)
			}
		case *ast.CallExpr:
			if path, name := pass.PkgFuncCall(n); path == "time" && clockFuncs[name] {
				pass.Reportf(n.Pos(),
					"call to time.%s in determinism-contract package %q; move timing to internal/telemetry or mark the file //popcheck:allow detrand",
					name, pass.RelPath)
			}
		}
		return true
	})
	return nil
}
