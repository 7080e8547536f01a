// Package hotpath enforces kernel purity: a function whose doc comment
// carries the //popcheck:kernel directive is part of the engine's hot
// loop in internal/sim/engine.go — one of the five sampler loops, or a
// helper they inline (the block-prefetch draw, the protocol machine's
// table update). Those are allocation- and dispatch-free by design. The
// per-step cost budget there is a couple of loads, a multiply and
// predictable branches; anything that allocates, defers, schedules or
// dynamically dispatches silently destroys the measured speedups that
// BenchmarkEngine and cmd/e2ebench's msteps_per_s record. Whether the
// helpers actually inline is the compiler's call, which this analyzer
// cannot see; CI checks it from go build -gcflags=-m.
//
// Inside a marked function the analyzer flags:
//   - defer and go statements;
//   - allocation sites: make, new, append, composite literals and
//     function literals (closures capture and escape);
//   - any call into package fmt (formatting allocates; kernels report
//     through preallocated counters instead);
//   - interface method calls on anything other than the kernel's own
//     parameters. A sampler loop receives the protocol as a parameter —
//     that seam is the documented Step dispatch point — but dispatch on
//     fields or locals means the sampling path regressed to interface
//     calls.
//
// Known-slow fallback paths (e.g. the node-clock loop's non-CSR
// neighbor lookup) document themselves with
// "//popcheck:ignore hotpath <reason>".
package hotpath

import (
	"go/ast"
	"go/types"

	"popgraph/internal/analyzers"
)

// Analyzer is the hotpath pass.
var Analyzer = &analyzers.Analyzer{
	Name: "hotpath",
	Doc: "enforce allocation- and dispatch-freedom inside //popcheck:kernel functions " +
		"(no defer/go/fmt/make/new/append/composite literals/closures; interface calls only on parameters)",
	Run: run,
}

func run(pass *analyzers.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analyzers.FuncMarked(fn, "kernel") {
				continue
			}
			checkKernel(pass, fn)
		}
	}
	return nil
}

// paramObjects collects the types.Object of every parameter (and
// receiver) of fn: the sanctioned dispatch seam.
func paramObjects(pass *analyzers.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	params := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					params[obj] = true
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return params
}

func checkKernel(pass *analyzers.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	params := paramObjects(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "defer inside kernel %s (defers allocate and run cold epilogues on the hot path)", name)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement inside kernel %s", name)
		case *ast.CompositeLit:
			pass.Reportf(n.Pos(), "composite literal allocation inside kernel %s", name)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "closure inside kernel %s (captures escape to the heap)", name)
			return false // don't double-report the closure's own body
		case *ast.CallExpr:
			checkKernelCall(pass, n, name, params)
		}
		return true
	})
}

func checkKernelCall(pass *analyzers.Pass, call *ast.CallExpr, kernel string, params map[types.Object]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new", "append":
				pass.Reportf(call.Pos(), "%s inside kernel %s (allocates on the hot path)", id.Name, kernel)
			}
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if path, fname := pass.PkgFuncCall(call); path != "" {
		if path == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s inside kernel %s (formatting allocates; use counters)", fname, kernel)
		}
		return
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	if _, isInterface := recv.Underlying().(*types.Interface); !isInterface {
		return
	}
	// Dispatch through the kernel's own parameters is the documented
	// protocol seam; anything else is a regression.
	if id, ok := sel.X.(*ast.Ident); ok && params[pass.TypesInfo.Uses[id]] {
		return
	}
	pass.Reportf(call.Pos(),
		"interface method call %s.%s inside kernel %s (dynamic dispatch on the hot path; monomorphize or //popcheck:ignore hotpath with a reason)",
		types.ExprString(sel.X), sel.Sel.Name, kernel)
}
