package autopipe_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported package-level funcs and types in
// internal/ that only test files reference, keyed by package path under
// internal/ and name, each with the reason it stays exported. Every other
// such identifier belongs in a _test.go file or nowhere.
var testOnlyExports = map[string]string{
	"nn.TinyGPT":                 "the tiny-model config the nn and train tests share",
	"nn.Checkpoint":              "activation checkpointing (paper §II-C) of the miniature framework; the nn tests and train's TestCheckpointedPipelineMatchesSerial show it leaves gradients unchanged",
	"schedule.ParseJSON":         "parses the schedule goldens for the root fixture manifest and the schedule tests",
	"schedule.EncodeJSON":        "writes the schedule golden format for the JSON round-trip tests and FuzzParseSchedule",
	"analysis/analysistest.Run":  "the analyzer fixture harness; only the analyzers' tests run it",
	"analysis/analysistest.Load": "the analyzer fixture harness; only the analyzers' tests run it",
}

// TestNoTestOnlyExports fails when an exported package-level func or type
// in internal/ has no reference in a non-test Go file, its own declaration
// (and its methods' receivers) not counting. Such an identifier is test
// machinery inside production code: move it into the tests that need it, or
// give it a reason in testOnlyExports. Non-test files of every package count
// as references, including the perfbench module, which imports internal/
// packages through its replace directive.
func TestNoTestOnlyExports(t *testing.T) {
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var files []file
	pkgName := map[string]string{} // import path -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("autopipe", filepath.ToSlash(filepath.Dir(p)))
		pkgName[pkg] = f.Name.Name
		files = append(files, file{pkg, f})
		return nil
	})
	if err != nil {
		t.Fatalf("walk module: %v", err)
	}

	// key names a package-level identifier; internal/ packages drop the
	// module prefix, as in testOnlyExports.
	key := func(pkg, name string) string {
		return strings.TrimPrefix(pkg, "autopipe/internal/") + "." + name
	}
	declared := map[string]token.Pos{}
	referenced := map[string]bool{}
	for _, f := range files {
		// skip holds the identifiers that declare rather than use a name.
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.ast.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				skip[decl.Name] = true
				if decl.Recv == nil {
					if strings.HasPrefix(f.pkg, "autopipe/internal/") && decl.Name.IsExported() {
						declared[key(f.pkg, decl.Name.Name)] = decl.Name.Pos()
					}
					continue
				}
				ast.Inspect(decl.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						skip[id] = true
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						skip[ts.Name] = true
						if strings.HasPrefix(f.pkg, "autopipe/internal/") && ts.Name.IsExported() {
							declared[key(f.pkg, ts.Name.Name)] = ts.Name.Pos()
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if imp.Name != nil {
				imports[imp.Name.Name] = p
			} else if name, ok := pkgName[p]; ok {
				imports[name] = p
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						referenced[key(p, n.Sel.Name)] = true
					}
				}
				skip[n.Sel] = true // a field or method name, never a package-level one
			case *ast.Field:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					skip[id] = true // a struct literal's field name
				}
			case *ast.Ident:
				if !skip[n] {
					referenced[key(f.pkg, n.Name)] = true
				}
			}
			return true
		})
	}

	var unused []string
	for name := range declared {
		if referenced[name] {
			if _, listed := testOnlyExports[name]; listed {
				t.Errorf("%s has a non-test caller now; drop it from testOnlyExports", name)
			}
			continue
		}
		if _, listed := testOnlyExports[name]; !listed {
			unused = append(unused, fset.Position(declared[name]).String()+": "+name)
		}
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyExports names %s, which is not an exported func or type in internal/", name)
		}
	}
	slices.Sort(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests use it", u)
	}
}
