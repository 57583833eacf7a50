// Package simclock enforces the reproduction's determinism invariant: the
// planner, simulator, executor, plan evaluator, and training runtimes must
// be pure functions of their inputs and seeds. The paper's
// simulator-vs-actual agreement (Fig. 11) and the recorded search
// trajectories are only checkable because re-running them is bit-identical;
// one wall-clock read or unseeded random draw inside those packages silently
// invalidates every downstream comparison, because the planner is re-run
// thousands of times inside enumeration loops.
//
// Flagged inside the deterministic packages (non-test files):
//
//   - time.Now / time.Since / time.Until / time.Sleep / time.After /
//     time.AfterFunc / time.Tick / time.NewTimer / time.NewTicker — any
//     wall-clock read or timer. Elapsed-time telemetry goes through
//     obs.Stopwatch (package obs is the telemetry layer and may read the
//     clock).
//   - package-level math/rand and math/rand/v2 calls (rand.Int, rand.Float64,
//     rand.Shuffle, ...), which draw from the process-global, unseeded
//     source. Constructors (rand.New, rand.NewSource) are fine: a *rand.Rand
//     threaded from an explicit seed is deterministic.
//   - slices appended inside a map range and then returned without an
//     intervening sort: Go's map iteration order is deliberately randomized,
//     so such a slice leaks nondeterminism through a return value.
//
// The check is intraprocedural: a helper that wraps time.Now is flagged at
// the time.Now inside it, not at its callers.
//
// Escape hatch: `//lint:allow simclock <reason>` on the offending line or
// the line above, for the rare legitimate site (e.g. CLI progress output
// living in a deterministic package).
package simclock

import (
	"go/ast"
	"go/types"
	"strings"

	"autopipe/internal/analysis"
)

// DefaultScope lists the deterministic packages.
var DefaultScope = []string{
	"autopipe/internal/sim",
	"autopipe/internal/core",
	"autopipe/internal/exec",
	"autopipe/internal/plan",
	"autopipe/internal/train",
}

// Analyzer checks the production deterministic packages.
var Analyzer = New(DefaultScope...)

// forbiddenTime lists the time package functions that read the clock or arm
// timers. Pure constructors/converters (time.Duration arithmetic, time.Unix,
// time.Date, time.ParseDuration) stay legal.
var forbiddenTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// New returns a simclock analyzer scoped to the given package paths (a path
// matches exactly or as a "path/" prefix). Tests scope it to fixtures.
func New(scope ...string) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "simclock",
		Doc:  "forbid wall-clock reads, global randomness, and escaping map order in deterministic packages",
	}
	a.Run = func(pass *analysis.Pass) error {
		if !inScope(pass.Pkg.Path(), scope) {
			return nil
		}
		for _, file := range pass.Files {
			if pass.InTestFile(file) {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, n)
				case *ast.FuncDecl:
					if n.Body != nil {
						checkMapOrder(pass, n.Type, n.Body)
					}
				case *ast.FuncLit:
					checkMapOrder(pass, n.Type, n.Body)
				}
				return true
			})
		}
		return nil
	}
	return a
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.PkgFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTime[fn.Name()] {
			pass.Reportf(call.Pos(),
				"wall-clock call time.%s in deterministic package %s; use obs.Stopwatch for telemetry, or annotate //lint:allow simclock",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(),
				"global math/rand source (rand.%s) in deterministic package %s; thread a seeded *rand.Rand instead",
				fn.Name(), pass.Pkg.Path())
		}
	}
}

// checkMapOrder flags slices appended under a map range and returned without
// a sort: the classic way map iteration order escapes into results. The walk
// stays inside one function body — nested function literals are analyzed as
// their own functions.
func checkMapOrder(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	returned := make(map[types.Object]bool)
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					returned[obj] = true
				}
			}
		}
	}
	sorted := make(map[types.Object]bool)
	inspectShallow(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						returned[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			if fn := analysis.PkgFunc(pass.Info, n); fn != nil && fn.Pkg() != nil {
				if p := fn.Pkg().Path(); (p == "sort" || p == "slices") && len(n.Args) > 0 {
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := pass.Info.Uses[id]; obj != nil {
							sorted[obj] = true
						}
					}
				}
			}
		}
	})
	inspectShallow(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return
		}
		t := pass.Info.TypeOf(rng.X)
		if t == nil {
			return
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return
		}
		inspectShallow(rng.Body, func(m ast.Node) {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "append" {
				return
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return
			}
			if len(call.Args) == 0 {
				return
			}
			dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.Info.Uses[dst]
			if obj != nil && returned[obj] && !sorted[obj] {
				pass.Reportf(call.Pos(),
					"slice %s is built in map-iteration order and returned unsorted; map order is randomized — sort before returning",
					dst.Name)
			}
		})
	})
}

// inspectShallow walks n but does not descend into nested function literals.
func inspectShallow(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if m != nil {
			f(m)
		}
		return true
	})
}
