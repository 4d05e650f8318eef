package zombiescope_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
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
	found := scanTestOnlyExports(t, loadShippedTree(t))
	checkGolden(t, exportsGolden, "# Exported identifiers under internal/ that no shipped code calls, each\n# with the reason it stays exported (TestTestOnlyExports).\n", found)
	lines := 0
	for _, e := range found {
		lines += e.lines
	}
	t.Logf("%d test-only exports, %d lines", len(found), lines)
}

// finding is one declaration a scan lists: name is "internal/pkg.Name" or
// "internal/pkg.Type.Member", problem says what is wrong with it and how
// to mend it, lines is its declaration's length with its doc comment.
type finding struct {
	name, pos, problem string
	lines              int
}

// checkGolden compares a scan's findings with file, whose lines list the
// findings that stay, each with its reason. A finding the golden does not
// list fails, and so do a listed one without a reason and a listed name
// the scan no longer finds. With -update it first rewrites file as header
// and the findings: listed reasons are kept and new entries get an empty
// one, which fails until it is filled in.
func checkGolden(t *testing.T, file, header string, found []finding) {
	t.Helper()
	if *update {
		old, _ := readGolden(file)
		b := bytes.NewBufferString(header)
		for _, f := range found {
			fmt.Fprintf(b, "%s\t%s\n", f.name, old[f.name])
		}
		if err := os.WriteFile(file, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readGolden(file)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, f := range found {
		reason, ok := want[f.name]
		switch {
		case !ok:
			t.Errorf("%s (%s) %s, or list it in %s with a reason", f.name, f.pos, f.problem, file)
		case reason == "":
			t.Errorf("%s: %s gives no reason", file, f.name)
		}
		delete(want, f.name)
	}
	for name := range want {
		t.Errorf("%s lists %s, which is gone or no longer found: remove the line", file, name)
	}
}

// readGolden reads "name<TAB>reason" lines; # starts a comment.
func readGolden(file string) (map[string]string, error) {
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

// scanTestOnlyExports lists the exported identifiers declared in the
// tree's packages under internal/ that no shipped code uses: top-level
// types, functions, variables and constants, and the methods of any type
// declared there. A declaration is used when an identifier in a shipped
// file resolves to it (its generic origin, for an instance) outside its
// own declaration and outside a method's receiver. A method is also used
// when it implements, on T or *T, an interface method that shipped code
// calls. A method of a standard-library interface its type implements
// (String, Error, Len, ...) is called by the standard library and is not
// listed. Uses inside a listed declaration do not count: the scan repeats
// until no more declarations are listed, so what only test-only code
// reaches is listed too.
func scanTestOnlyExports(t *testing.T, tr *typedTree) []finding {
	t.Helper()
	std, err := stdInterfaces()
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		finding
		obj    types.Object
		node   ast.Node // the declaration; uses inside it do not count
		listed bool
	}
	span := func(from, to token.Pos) int {
		return scanFset.Position(to).Line - scanFset.Position(from).Line + 1
	}
	var decls []*decl
	byObj := make(map[types.Object]*decl)
	add := func(pkg string, id *ast.Ident, doc *ast.CommentGroup, node ast.Node) {
		obj := tr.info.Defs[id]
		name := id.Name
		if recv := methodRecv(obj); recv != nil {
			if implementsStd(obj.(*types.Func), std) {
				return
			}
			name = recv.Obj().Name() + "." + name
		}
		from := node.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		d := &decl{
			finding: finding{name: tr.shortName(pkg, name), pos: scanFset.Position(node.Pos()).String(), lines: span(from, node.End()),
				problem: "is exported but only tests use it: delete it, move it into the tests"},
			obj: obj, node: node,
		}
		decls = append(decls, d)
		byObj[obj] = d
	}
	for _, p := range tr.pkgs {
		if !tr.internal(p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() {
						add(p.path, d.Name, d.Doc, d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						doc, node := specDoc(d, s), ast.Node(s)
						if len(d.Specs) == 1 {
							node = d
						}
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								add(p.path, s.Name, doc, node)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									add(p.path, n, doc, node)
								}
							}
						}
					}
				}
			}
		}
	}

	// Every use in a shipped file, with the declaration node of the
	// candidates it sits in (nil outside all of them).
	type use struct {
		obj  types.Object
		from ast.Node
	}
	nodes := make(map[ast.Node]bool)
	for _, d := range decls {
		nodes[d.node] = true
	}
	var uses []use
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			for _, top := range f.Decls {
				var recv *ast.FieldList
				if fd, ok := top.(*ast.FuncDecl); ok {
					recv = fd.Recv
				}
				var from ast.Node
				ast.Inspect(top, func(n ast.Node) bool {
					if nodes[n] {
						from = n
					}
					id, ok := n.(*ast.Ident)
					if !ok || recv != nil && within(id, recv) {
						return true
					}
					if obj := tr.info.Uses[id]; obj != nil {
						u := use{obj: origin(obj)}
						if from != nil && within(id, from) {
							u.from = from
						}
						uses = append(uses, u)
					}
					return true
				})
			}
		}
	}

	listed := make(map[ast.Node]bool) // declaration nodes of listed candidates
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	for {
		used := make(map[types.Object]bool)
		called := make(map[ifaceMethod]bool)
		for _, u := range uses {
			if u.from != nil && (listed[u.from] || byObj[u.obj] != nil && byObj[u.obj].node == u.from) {
				continue
			}
			used[u.obj] = true
			if m, ok := u.obj.(*types.Func); ok {
				if recv := m.Type().(*types.Signature).Recv(); recv != nil {
					if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
						called[ifaceMethod{iface, m.Name()}] = true
					}
				}
			}
		}
		implementsCalled := func(recv *types.Named, name string) bool {
			for c := range called {
				if c.name == name && implements(recv, c.iface) {
					return true
				}
			}
			return false
		}
		grew := false
		for _, d := range decls {
			if d.listed || used[d.obj] {
				continue
			}
			if recv := methodRecv(d.obj); recv != nil && implementsCalled(recv, d.obj.Name()) {
				continue
			}
			d.listed, listed[d.node], grew = true, true, true
		}
		if !grew {
			break
		}
	}

	var out []finding
	for _, d := range decls {
		if d.listed {
			out = append(out, d.finding)
		}
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
func specDoc(d *ast.GenDecl, s ast.Spec) *ast.CommentGroup {
	var doc *ast.CommentGroup
	switch s := s.(type) {
	case *ast.TypeSpec:
		doc = s.Doc
	case *ast.ValueSpec:
		doc = s.Doc
	}
	if doc != nil || len(d.Specs) > 1 {
		return doc
	}
	return d.Doc
}
