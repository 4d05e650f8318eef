package zombiescope_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/")

const apiGolden = "testdata/api.golden"

// TestAPIGolden pins the exported API of package zombiescope: every
// exported declaration, rendered without its comments, must match the
// committed golden, so the facade changes only on purpose. Run with
// -update to rewrite the golden after an intended change.
func TestAPIGolden(t *testing.T) {
	got := renderAPI(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("exported API of package zombiescope diverges from %s (run with -update if the change is intended):\n%s",
			apiGolden, got)
	}
}

// renderAPI renders the exported declarations of the package's non-test
// files in go/doc order: constants, variables, functions, then each type
// with its constants, variables, constructors and methods.
func renderAPI(t *testing.T) []byte {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	astPkg := pkgs["zombiescope"]
	if astPkg == nil {
		t.Fatal("no package zombiescope in the current directory")
	}
	var files []*ast.File
	for _, f := range astPkg.Files {
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "zombiescope")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	decl := func(d ast.Decl) {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fd.Body = nil
		}
		ast.Inspect(d, stripComments)
		if err := cfg.Fprint(&b, fset, d); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	// A grouped const or var block renders one declaration per spec, so
	// the golden has one line per name.
	values := func(vs []*doc.Value) {
		for _, v := range vs {
			for _, spec := range v.Decl.Specs {
				decl(&ast.GenDecl{Tok: v.Decl.Tok, Specs: []ast.Spec{spec}})
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			decl(f.Decl)
		}
	}
	values(pkg.Consts)
	values(pkg.Vars)
	funcs(pkg.Funcs)
	for _, ty := range pkg.Types {
		decl(ty.Decl)
		values(ty.Consts)
		values(ty.Vars)
		funcs(ty.Funcs)
		funcs(ty.Methods)
	}
	return b.Bytes()
}

// stripComments drops the doc and line comments of one node, so the
// golden pins declarations, not their prose.
func stripComments(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.GenDecl:
		n.Doc = nil
	case *ast.FuncDecl:
		n.Doc = nil
	case *ast.ValueSpec:
		n.Doc, n.Comment = nil, nil
	case *ast.TypeSpec:
		n.Doc, n.Comment = nil, nil
	case *ast.Field:
		n.Doc, n.Comment = nil, nil
	}
	return true
}
