package autopipe_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports lists the exported package-level funcs and types, and the
// exported methods, in internal/ that only test files reference, keyed by
// package path under internal/ and name (Type.Method for a method), each with
// the reason it stays exported. Every other such identifier belongs in a
// _test.go file or nowhere.
var testOnlyExports = map[string]string{
	"nn.TinyGPT":    "the tiny-model config the nn and train tests share",
	"nn.Checkpoint": "activation checkpointing (paper §II-C) of the miniature framework; the nn tests and train's TestCheckpointedPipelineMatchesSerial show it leaves gradients unchanged",
}

// TestNoTestOnlyExports fails when an exported package-level func or type, or
// an exported method, in internal/ has no use in a non-test Go file, its own
// declaration and its methods' receivers not counting. Such an identifier is
// test machinery inside production code: move it into the tests that need
// it, or give it a reason in testOnlyExports. Non-test files of every package
// count as uses, including the perfbench module, which imports internal/
// packages through its replace directive.
//
// Uses are resolved by type-checking the module's non-test files, with the
// standard library type-checked from source. Two kinds of method are exempt:
// methods on types the root package re-exports, which are public API, and
// methods that implement an interface non-test code can name (declared in the
// module, in a package it imports, or written inline), such as error,
// fmt.Stringer or the nn module interface; those are called through the
// interface, where no use names the concrete method.
func TestNoTestOnlyExports(t *testing.T) {
	imp := loadModule(t)
	fset := imp.fset

	// A use in a method's receiver list names the type the method belongs
	// to, not a caller of it.
	receiver := map[*ast.Ident]bool{}
	for _, files := range imp.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receiver[id] = true
						}
						return true
					})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range imp.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if !receiver[id] {
			used[obj] = true
		}
	}

	// Methods on the root package's re-exported types are public API.
	public := map[*types.TypeName]bool{}
	root := imp.pkgs["autopipe"].Scope()
	for _, name := range root.Names() {
		if tn, ok := root.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				public[named.Obj()] = true
			}
		}
	}
	ifaces := nameableInterfaces(t, imp)

	declared := map[string]types.Object{}
	for pkgPath, pkg := range imp.pkgs {
		if !strings.HasPrefix(pkgPath, "autopipe/internal/") {
			continue
		}
		prefix := strings.TrimPrefix(pkgPath, "autopipe/internal/") + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			switch obj.(type) {
			case *types.Func, *types.TypeName:
				if obj.Exported() {
					declared[prefix+name] = obj
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || public[tn] {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !implementsNameable(named, m.Name(), ifaces) {
					declared[prefix+name+"."+m.Name()] = m
				}
			}
		}
	}

	var unused []string
	for name, obj := range declared {
		if used[obj] {
			if _, listed := testOnlyExports[name]; listed {
				t.Errorf("%s has a non-test caller now; drop it from testOnlyExports", name)
			}
			continue
		}
		if _, listed := testOnlyExports[name]; !listed {
			unused = append(unused, fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyExports names %s, which is not an exported func, type or method in internal/", name)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it", u)
	}
}

// moduleImporter type-checks the module's packages from their parsed
// non-test files, recording every package's definitions, uses and expression
// types in one shared types.Info, and hands standard-library imports to std.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// loadModule returns the module's non-test Go files, parsed and type-checked
// once per test binary with the standard library checked from source, for
// every test that reads the module's code: TestNoTestOnlyExports and the
// invariant checks in invariants_test.go. Nested testdata and dot
// directories are skipped; the perfbench module is loaded too.
func loadModule(t *testing.T) *moduleImporter {
	t.Helper()
	imp, err := sharedModule()
	if err != nil {
		t.Fatal(err)
	}
	return imp
}

var sharedModule = sync.OnceValues(func() (*moduleImporter, error) {
	fset := token.NewFileSet()
	imp := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		imp.files[path.Join("autopipe", filepath.ToSlash(p))] = files
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("walk module: %w", err)
	}
	for pkg := range imp.files {
		if _, err := imp.Import(pkg); err != nil {
			return nil, fmt.Errorf("type-check %s: %w", pkg, err)
		}
	}
	return imp, nil
})

// nameableInterfaces indexes by method name the interfaces non-test code can
// name: error and the protocols package errors asserts inline, every
// non-generic named interface declared in the module or in a package it
// imports, and every interface type written in its source.
func nameableInterfaces(t *testing.T, m *moduleImporter) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		if named, ok := typ.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	for _, expr := range []string{
		"error",
		"interface{ Unwrap() error }",
		"interface{ Unwrap() []error }",
		"interface{ Is(error) bool }",
		"interface{ As(any) bool }",
	} {
		tv, err := types.Eval(m.fset, nil, token.NoPos, expr)
		if err != nil {
			t.Fatalf("evaluate %s: %v", expr, err)
		}
		add(tv.Type)
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range m.pkgs {
		for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
			if seen[p] {
				continue
			}
			seen[p] = true
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
	}
	for _, tv := range m.info.Types {
		if tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// implementsNameable reports whether named, or a pointer to it, implements
// an interface in ifaces that has a method called method.
func implementsNameable(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	for _, iface := range ifaces[method] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
