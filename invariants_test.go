package autopipe_test

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// The invariants below hold for the module's non-test code. Each test walks
// the type-checked module from loadModule and reports every violation as
// file:line. There is no waiver comment: a site that must break an
// invariant is named, with its reason, in the test that checks it.

// errorScope lists the packages (with their subpackages) whose errors must
// wrap a sentinel: the planner, the executor and the training runtimes.
// Their errors reach the daemon's status mapping (client.Encode:
// ErrBadConfig → 400, ErrInfeasible and ErrOOM → 422) and Tables III/IV's
// OOM cells (internal/experiments), both of which dispatch with errors.Is.
var errorScope = []string{
	"autopipe/internal/core",
	"autopipe/internal/exec",
	"autopipe/internal/train",
}

// clockScope lists the deterministic packages (with their subpackages): the
// simulator, planner, executor, plan evaluator and training runtimes. Fig.
// 11's simulator-vs-executor agreement and the recorded search trajectories
// are checkable only because re-running them is bit-identical.
var clockScope = []string{
	"autopipe/internal/sim",
	"autopipe/internal/core",
	"autopipe/internal/exec",
	"autopipe/internal/plan",
	"autopipe/internal/train",
}

// TestErrsentinel fails on three ways a typed error turns opaque, so that
// errors.Is stops finding its errdefs sentinel:
//
//   - in errorScope, a fmt.Errorf whose constant format has no %w verb;
//   - in errorScope, an errors.New inside a function (a package-level
//     errors.New declares a sentinel and is fine);
//   - anywhere in the module but perfbench, an == or != comparison of an
//     error with a package-level error variable named Err*, which breaks as
//     soon as the error is wrapped.
func TestErrsentinel(t *testing.T) {
	imp := loadModule(t)
	for _, finding := range checkModule(imp, checkErrors) {
		t.Error(finding)
	}
}

// TestSimclock fails when a package in clockScope reads the wall clock or
// arms a timer (time.Now, Since, Until, Sleep, After, AfterFunc, Tick,
// NewTimer, NewTicker), draws from math/rand's or math/rand/v2's global
// source (the New* constructors are fine: a seeded *rand.Rand is
// deterministic), or returns a slice appended in a map range without a
// sort.* or slices.* call on it in the same function. Elapsed-time
// telemetry belongs to package obs.
func TestSimclock(t *testing.T) {
	imp := loadModule(t)
	for _, finding := range checkModule(imp, checkClock) {
		t.Error(finding)
	}
}

// checker reports the violations in one package's files. pkgPath is the
// package's import path; findings are "file:line: message".
type checker func(fset *token.FileSet, info *types.Info, pkgPath string, files []*ast.File) []string

// checkModule runs check over every package loadModule loaded and returns
// the findings sorted.
func checkModule(imp *moduleImporter, check checker) []string {
	var out []string
	for pkgPath, files := range imp.files {
		out = append(out, check(imp.fset, imp.info, pkgPath, files)...)
	}
	slices.Sort(out)
	return out
}

func inScope(pkgPath string, scope []string) bool {
	for _, s := range scope {
		if pkgPath == s || strings.HasPrefix(pkgPath, s+"/") {
			return true
		}
	}
	return false
}

func finding(fset *token.FileSet, pos token.Pos, format string, args ...any) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, fmt.Sprintf(format, args...))
}

func checkErrors(fset *token.FileSet, info *types.Info, pkgPath string, files []*ast.File) []string {
	if pkgPath == "autopipe/perfbench" || strings.HasPrefix(pkgPath, "autopipe/perfbench/") {
		return nil
	}
	scoped := inScope(pkgPath, errorScope)
	var out []string
	var walk func(n ast.Node, inFunc bool)
	walk = func(n ast.Node, inFunc bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walk(n.Body, true)
				}
				return false
			case *ast.FuncLit:
				if !inFunc {
					walk(n.Body, true)
					return false
				}
			case *ast.BinaryExpr:
				if name, ok := sentinelCompare(info, n); ok {
					out = append(out, finding(fset, n.Pos(),
						"comparing an error with %s using %s breaks under wrapping; use errors.Is", name, n.Op))
				}
			case *ast.CallExpr:
				fn := pkgFunc(info, n)
				if !scoped || fn == nil {
					break
				}
				switch fn.Pkg().Path() + "." + fn.Name() {
				case "fmt.Errorf":
					tv := info.Types[n.Args[0]]
					if tv.Value != nil && tv.Value.Kind() == constant.String &&
						!strings.Contains(strings.ReplaceAll(constant.StringVal(tv.Value), "%%", ""), "%w") {
						out = append(out, finding(fset, n.Pos(),
							"fmt.Errorf without %%w in %s: wrap an errdefs sentinel or the upstream error", pkgPath))
					}
				case "errors.New":
					if inFunc {
						out = append(out, finding(fset, n.Pos(),
							"errors.New inside a function in %s: wrap an errdefs sentinel with fmt.Errorf(\"%%w: ...\") or declare a package-level sentinel", pkgPath))
					}
				}
			}
			return true
		})
	}
	for _, f := range files {
		walk(f, false)
	}
	return out
}

// sentinelCompare reports whether cmp compares an error with a
// package-level error variable named Err*, and that variable's name.
func sentinelCompare(info *types.Info, cmp *ast.BinaryExpr) (string, bool) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return "", false
	}
	for _, pair := range [2][2]ast.Expr{{cmp.X, cmp.Y}, {cmp.Y, cmp.X}} {
		v := sentinelVar(info, pair[0])
		if v == nil {
			continue
		}
		if other := info.TypeOf(pair[1]); other != nil && types.AssignableTo(other, errorType) {
			return v.Pkg().Name() + "." + v.Name(), true
		}
	}
	return "", false
}

var errorType = types.Universe.Lookup("error").Type()

// sentinelVar returns the package-level error variable named Err* that e
// names, or nil.
func sentinelVar(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || !strings.HasPrefix(v.Name(), "Err") || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() ||
		!types.AssignableTo(v.Type(), errorType) {
		return nil
	}
	return v
}

// clockFuncs are the time functions that read the clock or arm a timer.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func checkClock(fset *token.FileSet, info *types.Info, pkgPath string, files []*ast.File) []string {
	if !inScope(pkgPath, clockScope) {
		return nil
	}
	var out []string
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := pkgFunc(info, n)
				if fn == nil {
					break
				}
				switch p := fn.Pkg().Path(); {
				case p == "time" && clockFuncs[fn.Name()]:
					out = append(out, finding(fset, n.Pos(),
						"wall-clock call time.%s in deterministic package %s; elapsed-time telemetry belongs to obs", fn.Name(), pkgPath))
				case (p == "math/rand" || p == "math/rand/v2") && !strings.HasPrefix(fn.Name(), "New"):
					out = append(out, finding(fset, n.Pos(),
						"global math/rand source (rand.%s) in deterministic package %s; thread a seeded *rand.Rand", fn.Name(), pkgPath))
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, mapOrder(fset, info, n.Type, n.Body)...)
				}
			case *ast.FuncLit:
				out = append(out, mapOrder(fset, info, n.Type, n.Body)...)
			}
			return true
		})
	}
	return out
}

// mapOrder reports the appends, inside a map range, to a slice the function
// returns (by a named result or a return of the bare variable) and never
// passes to a sort.* or slices.* call. Map iteration order is randomized, so
// such a slice leaks it through the result. Nested function literals are
// separate functions.
func mapOrder(fset *token.FileSet, info *types.Info, ftype *ast.FuncType, body *ast.BlockStmt) []string {
	returned := map[types.Object]bool{}
	if ftype.Results != nil {
		for _, field := range ftype.Results.List {
			for _, name := range field.Names {
				returned[info.Defs[name]] = true
			}
		}
	}
	sorted := map[types.Object]bool{}
	var ranges []*ast.RangeStmt
	inspectFunc(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := identObj(info, res); obj != nil {
					returned[obj] = true
				}
			}
		case *ast.CallExpr:
			if fn := pkgFunc(info, n); fn != nil && len(n.Args) > 0 {
				if p := fn.Pkg().Path(); p == "sort" || p == "slices" {
					sorted[identObj(info, n.Args[0])] = true
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					ranges = append(ranges, n)
				}
			}
		}
	})
	var out []string
	for _, rng := range ranges {
		inspectFunc(rng.Body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return
			}
			if _, ok := info.Uses[identOf(call.Fun)].(*types.Builtin); !ok || identOf(call.Fun).Name != "append" {
				return
			}
			if obj := identObj(info, call.Args[0]); obj != nil && returned[obj] && !sorted[obj] {
				out = append(out, finding(fset, call.Pos(),
					"slice %s is built in map-iteration order and returned unsorted; sort it before returning", obj.Name()))
			}
		})
	}
	return out
}

// inspectFunc calls f on every node under n outside nested function
// literals.
func inspectFunc(n ast.Node, f func(ast.Node)) {
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

// identOf returns e as an identifier, or nil.
func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

// identObj returns the object a bare identifier expression uses, or nil.
func identObj(info *types.Info, e ast.Expr) types.Object {
	if id := identOf(e); id != nil {
		return info.Uses[id]
	}
	return nil
}

// pkgFunc returns the package-level function call invokes, or nil for a
// method, a builtin, a conversion or a call of a value.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// TestInvariantChecks runs checkErrors and checkClock over small sources,
// type-checked through loadModule's importer as the package path each case
// names: one case per pattern they flag, one per scope boundary, and clean
// code that must pass. Each want entry is "line: message prefix".
func TestInvariantChecks(t *testing.T) {
	imp := loadModule(t)
	cases := []struct {
		name, path, src string
		want            []string
	}{
		{"errorf_without_w", "autopipe/internal/core", `package p
import "fmt"
func f(n int) error {
	return fmt.Errorf("bad stage count %d", n)
}
func g(n int) error {
	return fmt.Errorf("use a %%w verb to wrap (state %d)", n)
}`, []string{"4: fmt.Errorf without %w", "7: fmt.Errorf without %w"}},

		{"errors_new_in_function", "autopipe/internal/train", `package p
import "errors"
var ErrSentinel = errors.New("declared at package level")
var fail = func() error { return errors.New("in a function literal") }
func f() error {
	return errors.New("something broke")
}`, []string{"4: errors.New inside a function", "6: errors.New inside a function"}},

		{"sentinel_compare", "autopipe/internal/experiments", `package p
import "autopipe/internal/errdefs"
func f(err error) bool {
	return err == errdefs.ErrOOM
}
func g(err error) bool {
	return errdefs.ErrBadConfig != err
}`, []string{"4: comparing an error with errdefs.ErrOOM using ==", "7: comparing an error with errdefs.ErrBadConfig using !="}},

		{"wrap_checks_out_of_scope", "autopipe/internal/service", `package p
import (
	"errors"
	"fmt"
)
var ErrLocal = errors.New("local sentinel")
func f(err error) error {
	if err == ErrLocal {
		return fmt.Errorf("opaque %v", errors.New("detail"))
	}
	return nil
}`, []string{"8: comparing an error with p.ErrLocal using =="}},

		{"errors_clean", "autopipe/internal/exec", `package p
import (
	"errors"
	"fmt"
	"autopipe/internal/errdefs"
)
var ErrLocal = errors.New("local sentinel")
func f(n int, err error) error {
	if err != nil && errors.Is(err, errdefs.ErrOOM) {
		return fmt.Errorf("%w: stage %d: %w", errdefs.ErrBadConfig, n, err)
	}
	return fmt.Errorf("100%%: %w", ErrLocal)
}`, nil},

		{"wall_clock", "autopipe/internal/core", `package p
import "time"
func f() time.Duration {
	start := time.Now()
	time.Sleep(10 * time.Millisecond)
	<-time.After(time.Millisecond)
	return time.Since(start)
}`, []string{"4: wall-clock call time.Now", "5: wall-clock call time.Sleep", "6: wall-clock call time.After", "7: wall-clock call time.Since"}},

		{"global_rand", "autopipe/internal/sim", `package p
import (
	"math/rand"
	v2 "math/rand/v2"
)
func f() int {
	return rand.Intn(10) + v2.IntN(10)
}`, []string{"7: global math/rand source (rand.Intn)", "7: global math/rand source (rand.IntN)"}},

		{"map_order_returned", "autopipe/internal/sim", `package p
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
func named(m map[string]int) (vals []int) {
	for _, v := range m {
		vals = append(vals, v)
	}
	return
}`, []string{"5: slice out is built in map-iteration order", "11: slice vals is built in map-iteration order"}},

		{"clock_clean", "autopipe/internal/plan", `package p
import (
	"math/rand"
	"sort"
	"time"
)
func draw(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}
func double(d time.Duration) time.Duration { return 2 * d }
func keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
func count(m map[string]int) int {
	var scratch []string
	total := 0
	for k, v := range m {
		scratch = append(scratch, k)
		total += v
	}
	return total + len(scratch)
}`, nil},

		{"clock_out_of_scope", "autopipe/internal/service", `package p
import (
	"math/rand"
	"time"
)
func f(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	_ = time.Now()
	_ = rand.Intn(3)
	return out
}`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := parser.ParseFile(imp.fset, tc.name+".go", tc.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			info := &types.Info{
				Defs:  map[*ast.Ident]types.Object{},
				Uses:  map[*ast.Ident]types.Object{},
				Types: map[ast.Expr]types.TypeAndValue{},
			}
			conf := types.Config{Importer: imp}
			if _, err := conf.Check(tc.path, imp.fset, []*ast.File{f}, info); err != nil {
				t.Fatal(err)
			}
			files := []*ast.File{f}
			got := append(checkErrors(imp.fset, info, tc.path, files), checkClock(imp.fset, info, tc.path, files)...)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(got), len(tc.want), strings.Join(got, "\n"))
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], tc.name+".go:"+w) {
					t.Errorf("finding %d = %q, want %s.go:%s...", i, got[i], tc.name, w)
				}
			}
		})
	}
}
