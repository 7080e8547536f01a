// Package seedflow checks that per-trial RNG construction flows through
// the sanctioned seed-derivation helpers instead of ad-hoc arithmetic.
//
// The repo's reproducibility contract says a (base seed, trial index)
// pair fully determines a trial's random stream. runner.SeedFor
// implements that with a golden-ratio gamma whose increments are
// well-spread in the xoshiro seed space; sweep.mix runs full splitmix64
// finalization. Ad-hoc recipes like xrand.New(seed + uint64(i)*977)
// produce correlated streams across trials (small odd multipliers only
// permute low bits) and — worse — each experiment inventing its own
// recipe means the same (seed, trial) pair names different streams in
// different tools.
//
// The analyzer flags calls to xrand.New whose argument is
//   - a compile-time constant (a hard-wired stream shared by every
//     caller), or
//   - arithmetic mixing an enclosing loop variable (an ad-hoc per-trial
//     derivation).
//
// Sanctioned forms pass untouched: any call expression
// (runner.SeedFor(base, trial), mix(...)), a plain variable or field
// (the seed was derived elsewhere), and anything outside loops that
// isn't constant. examples/ are demo code and exempt wholesale.
//
// Sharded sweeps add a second seam. A shard owns every m-th cell of the
// task-major grid, so a shard-local loop index i is NOT a trial number:
// the trial identity is the global (task, trial) pair, recovered from
// the planned cell (shard.Cell.Trial), never re-derived by arithmetic
// like i*m+shard. The analyzer therefore also flags runner.SeedFor
// calls whose trial argument is arithmetic over an enclosing loop
// variable — the off-by-shard recipe that makes every shard replay
// shard 0's seeds or scramble the grid correspondence. Passing a loop
// variable straight through (runner.SeedFor(base, trial)) or a planned
// field (cells[i].Trial) stays sanctioned.
package seedflow

import (
	"go/ast"
	"go/types"
	"strings"

	"popgraph/internal/analyzers"
)

// xrandPath is the module path of the deterministic RNG package whose
// constructors this pass guards; runnerPath holds the sanctioned seed
// derivation whose trial argument the shard-seam rule inspects.
const (
	xrandPath  = "popgraph/internal/xrand"
	runnerPath = "popgraph/internal/runner"
)

// Analyzer is the seedflow pass.
var Analyzer = &analyzers.Analyzer{
	Name: "seedflow",
	Doc:  "require per-trial RNG seeds to flow from runner.SeedFor or a splitmix-style mixer, not constants or ad-hoc loop arithmetic",
	Run:  run,
}

func run(pass *analyzers.Pass) error {
	if pass.RelPath == "examples" || strings.HasPrefix(pass.RelPath, "examples/") {
		return nil
	}
	for _, file := range pass.Files {
		checkFile(pass, file)
	}
	return nil
}

// checkFile walks one file keeping a stack of loop-variable scopes so
// that a seed expression can be tested for references to any enclosing
// loop's variables.
func checkFile(pass *analyzers.Pass, file *ast.File) {
	loopVars := make(map[types.Object]bool)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			vars := declaredVars(pass, n.Init)
			pushLoop(pass, loopVars, vars, n.Body, walk)
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			if n.Cond != nil {
				ast.Inspect(n.Cond, walk)
			}
			if n.Post != nil {
				ast.Inspect(n.Post, walk)
			}
			return false
		case *ast.RangeStmt:
			var vars []types.Object
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						vars = append(vars, obj)
					}
				}
			}
			pushLoop(pass, loopVars, vars, n.Body, walk)
			ast.Inspect(n.X, walk)
			return false
		case *ast.CallExpr:
			checkCall(pass, n, loopVars)
		}
		return true
	}
	ast.Inspect(file, walk)
}

// declaredVars returns the objects a for-init `i := 0` style statement
// declares.
func declaredVars(pass *analyzers.Pass, init ast.Stmt) []types.Object {
	assign, ok := init.(*ast.AssignStmt)
	if !ok {
		return nil
	}
	var vars []types.Object
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				vars = append(vars, obj)
			}
		}
	}
	return vars
}

// pushLoop walks body with vars added to the loop-variable set, then
// removes them again.
func pushLoop(pass *analyzers.Pass, loopVars map[types.Object]bool, vars []types.Object, body *ast.BlockStmt, walk func(ast.Node) bool) {
	for _, v := range vars {
		loopVars[v] = true
	}
	ast.Inspect(body, walk)
	for _, v := range vars {
		delete(loopVars, v)
	}
}

func checkCall(pass *analyzers.Pass, call *ast.CallExpr, loopVars map[types.Object]bool) {
	path, name := pass.PkgFuncCall(call)
	if path == runnerPath && name == "SeedFor" && len(call.Args) == 2 {
		// The trial argument must be a trial identity — the loop variable
		// itself or a planned (task, trial) cell field — not shard-local
		// arithmetic like i*m+shard, which every shard would compute
		// differently from the global grid position it claims to run.
		if v := loopVarIn(pass, call.Args[1], loopVars); v != "" {
			pass.Reportf(call.Pos(),
				"runner.SeedFor trial argument mixes loop variable %s arithmetically (shard-local indices must map through the global (task, trial) cell, e.g. cells[%s].Trial, before seed derivation)",
				v, v)
		}
		return
	}
	if path != xrandPath || name != "New" || len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if tv, ok := pass.TypesInfo.Types[arg]; ok && tv.Value != nil {
		pass.Reportf(call.Pos(),
			"xrand.New with constant seed %s (every caller shares this stream; derive seeds with runner.SeedFor(base, trial))",
			tv.Value.String())
		return
	}
	if _, ok := arg.(*ast.CallExpr); ok {
		// Seed produced by a helper (runner.SeedFor, a splitmix mixer,
		// ...): the sanctioned shape.
		return
	}
	if v := loopVarIn(pass, arg, loopVars); v != "" {
		pass.Reportf(call.Pos(),
			"xrand.New seed mixes loop variable %s ad hoc (correlated streams across trials; use runner.SeedFor(base, trial) instead)",
			v)
	}
}

// loopVarIn returns the name of the first enclosing-loop variable
// referenced by arithmetic inside e, or "" if none.
func loopVarIn(pass *analyzers.Pass, e ast.Expr, loopVars map[types.Object]bool) string {
	if len(loopVars) == 0 {
		return ""
	}
	if _, ok := e.(*ast.BinaryExpr); !ok {
		// A bare variable, field or conversion-free identifier: the
		// derivation (if any) happened elsewhere and is judged there.
		return ""
	}
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && loopVars[obj] {
			found = id.Name
		}
		return true
	})
	return found
}
