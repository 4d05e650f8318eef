package zombiescope_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const settingsGolden = "testdata/settings.golden"

// TestUnsetSettings pins the exported struct fields under internal/ that
// no shipped code sets. A field that nothing sets holds its zero value in
// every run, so the behaviour it would select is one no binary, bench
// workload, example or experiment exercises: it should be a constant, or
// gone. An unset field fails here unless the golden lists it with the
// reason it stays settable. Run with -update to rewrite the golden:
// listed reasons are kept and new entries get an empty one, which fails
// until it is filled in.
func TestUnsetSettings(t *testing.T) {
	found := scanUnsetSettings(t)
	if *update {
		old, _ := readGolden(settingsGolden)
		var b bytes.Buffer
		b.WriteString("# Exported struct fields under internal/ that no shipped code sets, each\n")
		b.WriteString("# with the reason it stays settable (TestUnsetSettings).\n")
		for _, s := range found {
			fmt.Fprintf(&b, "%s\t%s\n", s.name, old[s.name])
		}
		if err := os.WriteFile(settingsGolden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := readGolden(settingsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, s := range found {
		reason, ok := want[s.name]
		switch {
		case !ok:
			t.Errorf("%s (%s) is settable but no shipped code sets it: make it a constant, delete it, or list it in %s with a reason",
				s.name, s.pos, settingsGolden)
		case reason == "":
			t.Errorf("%s: %s gives no reason", settingsGolden, s.name)
		}
		delete(want, s.name)
	}
	for name := range want {
		t.Errorf("%s lists %s, which is gone or set by shipped code now: remove the line", settingsGolden, name)
	}
	t.Logf("%d unset settings", len(found))
}

// unsetSetting is one exported field no shipped code sets: name is
// "internal/pkg.Type.Field".
type unsetSetting struct {
	name, pos string
}

// scanUnsetSettings lists the exported fields of exported struct types
// declared in shipped packages under internal/ that no shipped file sets.
// A field is set where a shipped file names it as a key of a composite
// literal of its type, writes a literal of its type without keys, or
// assigns to, increments or takes the address of (as the flag package's
// *Var functions do) a selector of its name. A literal's type is resolved
// through imports and the type aliases of shipped files; an element
// literal with its type elided takes its parent's element type, and a
// key whose literal type cannot be resolved sets every field of that
// name. Fields with a json tag are set by decoding and are skipped.
func scanUnsetSettings(t *testing.T) []unsetSetting {
	t.Helper()
	fset := token.NewFileSet()
	files := shippedFiles(t, fset)

	type field struct {
		typ, name string // "importpath.Type", "Field"
		pos       token.Pos
	}
	var fields []field
	aliases := make(map[string]string) // "importpath.Alias" -> "importpath.Type"
	for _, f := range files {
		imports := fileImports(f.ast)
		for _, d := range f.ast.Decls {
			d, ok := d.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, s := range d.Specs {
				s := s.(*ast.TypeSpec)
				if s.Assign.IsValid() {
					if target := typeKey(s.Type, f.pkg, imports); target != "" {
						aliases[f.pkg+"."+s.Name.Name] = target
					}
					continue
				}
				st, ok := s.Type.(*ast.StructType)
				if !ok || !s.Name.IsExported() || !strings.HasPrefix(f.pkg, "zombiescope/internal/") {
					continue
				}
				for _, fl := range st.Fields.List {
					if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
						continue
					}
					for _, n := range fl.Names {
						if n.IsExported() {
							fields = append(fields, field{f.pkg + "." + s.Name.Name, n.Name, n.Pos()})
						}
					}
				}
			}
		}
	}
	resolve := func(key string) string {
		for aliases[key] != "" {
			key = aliases[key]
		}
		return key
	}

	keyed := make(map[string]bool)    // "importpath.Type.Field"
	literal := make(map[string]bool)  // "importpath.Type" written without keys
	assigned := make(map[string]bool) // any selector name written through
	for _, f := range files {
		imports := fileImports(f.ast)
		elided := make(map[*ast.CompositeLit]ast.Expr) // element literals and their parent's element type
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				te := n.Type
				if te == nil {
					te = elided[n]
				}
				switch te := te.(type) {
				case *ast.ArrayType:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						markElided(elided, e, te.Elt)
					}
					return true
				case *ast.MapType:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							markElided(elided, kv.Key, te.Key)
							markElided(elided, kv.Value, te.Value)
						}
					}
					return true
				}
				typ := ""
				if te != nil {
					typ = resolve(typeKey(te, f.pkg, imports))
				}
				for _, e := range n.Elts {
					kv, isKV := e.(*ast.KeyValueExpr)
					if !isKV {
						literal[typ] = true
						break
					}
					if id, isIdent := kv.Key.(*ast.Ident); isIdent {
						if typ != "" {
							keyed[typ+"."+id.Name] = true
						} else {
							assigned[id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						if sel, ok := l.(*ast.SelectorExpr); ok {
							assigned[sel.Sel.Name] = true
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := n.X.(*ast.SelectorExpr); ok {
					assigned[sel.Sel.Name] = true
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					assigned[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var out []unsetSetting
	for _, fl := range fields {
		if keyed[fl.typ+"."+fl.name] || literal[fl.typ] || assigned[fl.name] {
			continue
		}
		out = append(out, unsetSetting{
			name: strings.TrimPrefix(fl.typ, "zombiescope/") + "." + fl.name,
			pos:  fset.Position(fl.pos).String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// fileImports maps each import's local name to its path.
func fileImports(f *ast.File) map[string]string {
	imports := make(map[string]string)
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// typeKey is "importpath.Type" for a named type expression (through one
// pointer), or "" for any other type.
func typeKey(e ast.Expr, pkg string, imports map[string]string) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeKey(e.X, pkg, imports)
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok && imports[x.Name] != "" {
			return imports[x.Name] + "." + e.Sel.Name
		}
	}
	return ""
}

// markElided records typ as the type of e when e is a literal with its
// type elided (written bare, or as &{...} for a pointer element).
func markElided(elided map[*ast.CompositeLit]ast.Expr, e ast.Expr, typ ast.Expr) {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if cl, ok := e.(*ast.CompositeLit); ok && cl.Type == nil {
		elided[cl] = typ
	}
}
