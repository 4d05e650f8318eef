package zombiescope_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const exportsGolden = "testdata/exports.golden"

// TestTestOnlyExports pins the exported surface under internal/ that no
// shipped code calls. It scans every .go file in the tree, lists each
// exported identifier declared in a shipped package under internal/ that
// no shipped file uses, and compares that list with the committed golden,
// where each entry carries the reason it stays exported. A new export
// that only tests call fails here until it is deleted, moved into the
// tests that use it, or listed with a reason. Run with -update to rewrite
// the golden: listed reasons are kept and new entries get an empty one,
// which fails until it is filled in.
func TestTestOnlyExports(t *testing.T) {
	found := scanTestOnlyExports(t)
	if *update {
		old, _ := readExportsGolden(exportsGolden)
		var b bytes.Buffer
		b.WriteString("# Exported identifiers under internal/ that no shipped code calls, each\n")
		b.WriteString("# with the reason it stays exported (TestTestOnlyExports).\n")
		for _, e := range found {
			fmt.Fprintf(&b, "%s\t%s\n", e.name, old[e.name])
		}
		if err := os.WriteFile(exportsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readExportsGolden(exportsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	lines := 0
	for _, e := range found {
		lines += e.lines
		reason, ok := want[e.name]
		switch {
		case !ok:
			t.Errorf("%s (%s) is exported but only tests use it: delete it, move it into the tests, or list it in %s with a reason",
				e.name, e.pos, exportsGolden)
		case reason == "":
			t.Errorf("%s: %s gives no reason", exportsGolden, e.name)
		}
		delete(want, e.name)
	}
	for name := range want {
		t.Errorf("%s lists %s, which is gone or has a shipped caller now: remove the line", exportsGolden, name)
	}
	t.Logf("%d test-only exports, %d lines", len(found), lines)
}

// readExportsGolden reads "name<TAB>reason" lines; # starts a comment.
func readExportsGolden(file string) (map[string]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "\t")
		out[name] = strings.TrimSpace(reason)
	}
	return out, sc.Err()
}

// testOnlyExport is one exported identifier with no shipped use: name is
// "importpath.Name" or "importpath.Type.Method", lines its declaration's
// length with its doc comment.
type testOnlyExport struct {
	name, pos string
	lines     int
}

// stdMethods are method names a standard-library interface calls
// (fmt.Stringer, error, io, sort, heap, json, http, slog), which a scan
// of selectors cannot see being called.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true, "Format": true,
	"Read": true, "Write": true, "Close": true, "ReadAt": true, "WriteTo": true, "ReadFrom": true, "Seek": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Enabled": true, "Handle": true, "WithAttrs": true, "WithGroup": true,
}

// scanTestOnlyExports walks the tree from the repository root. Shipped
// files are the non-_test.go files of packages whose name does not end
// in "test" (test-support packages such as obstest are test code); bench/
// and examples/ are shipped. An exported top-level name declared in a
// shipped package under internal/ is used when a shipped file in another
// package selects it through its import (pkg.Name) or a shipped file of
// its own package names it outside its own declaration. An exported
// method is used when any shipped file selects a field or method of that
// name; methods named after standard interface methods are skipped.
func scanTestOnlyExports(t *testing.T) []testOnlyExport {
	t.Helper()
	type decl struct {
		testOnlyExport
		pkg, ident string
		method     bool
		node       ast.Node // the declaration; uses inside it do not count
	}
	type file struct {
		pkg string // import path
		ast *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(f.Name.Name, "test") {
			return nil
		}
		files = append(files, file{path.Join("zombiescope", filepath.ToSlash(filepath.Dir(p))), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	span := func(from, to token.Pos) int {
		return fset.Position(to).Line - fset.Position(from).Line + 1
	}
	var decls []*decl
	add := func(pkg, name string, method bool, doc *ast.CommentGroup, node ast.Node) {
		from := node.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		ident := name
		if method {
			ident = name[strings.LastIndexByte(name, '.')+1:]
		}
		decls = append(decls, &decl{
			testOnlyExport: testOnlyExport{name: pkg + "." + name, pos: fset.Position(node.Pos()).String(), lines: span(from, node.End())},
			pkg:            pkg, ident: ident, method: method, node: node,
		})
	}
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "zombiescope/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					add(f.pkg, d.Name.Name, false, d.Doc, d)
				} else if !stdMethods[d.Name.Name] {
					add(f.pkg, recvName(d.Recv.List[0].Type)+"."+d.Name.Name, true, d.Doc, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					doc, node := d.Doc, ast.Node(s)
					if len(d.Specs) == 1 {
						node = d
					}
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(f.pkg, s.Name.Name, false, specDoc(s.Doc, doc, len(d.Specs)), node)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(f.pkg, n.Name, false, specDoc(s.Doc, doc, len(d.Specs)), node)
							}
						}
					}
				}
			}
		}
	}

	used := make(map[string]bool)     // "importpath.Name" of top-level names
	selected := make(map[string]bool) // every selected field or method name
	own := make(map[string][]*decl)
	for _, d := range decls {
		if !d.method {
			own[d.pkg+"."+d.ident] = append(own[d.pkg+"."+d.ident], d)
		}
	}
	for _, f := range files {
		imports := make(map[string]string)
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := path.Base(p)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		var recv *ast.FieldList // the receiver of the method being walked
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				recv = n.Recv
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
			case *ast.Ident:
				// A receiver names its own type, and a declaration
				// names itself; neither is a use.
				key := f.pkg + "." + n.Name
				if ds, ok := own[key]; ok && (recv == nil || !within(n, recv)) && !slices.ContainsFunc(ds, func(d *decl) bool { return within(n, d.node) }) {
					used[key] = true
				}
			}
			return true
		})
	}

	var out []testOnlyExport
	for _, d := range decls {
		if d.method && selected[d.ident] || !d.method && used[d.pkg+"."+d.ident] {
			continue
		}
		d.name = strings.TrimPrefix(d.name, "zombiescope/")
		out = append(out, d.testOnlyExport)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// within reports whether n lies inside outer.
func within(n, outer ast.Node) bool {
	return n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

// specDoc picks a spec's own doc comment, or its declaration's when the
// declaration holds only that spec.
func specDoc(spec, decl *ast.CommentGroup, specs int) *ast.CommentGroup {
	if spec != nil || specs > 1 {
		return spec
	}
	return decl
}

// recvName is the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
