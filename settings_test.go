package zombiescope_test

import (
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
	found := scanUnsetSettings(loadShippedTree(t))
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
// declared in the tree's packages under internal/ that no shipped file
// sets. A field is set where a shipped file names it as a key of a
// composite literal, writes a literal of its struct without keys, or
// assigns to, increments or takes the address of (as the flag package's
// *Var functions do) a selector that resolves to it. Fields with a json
// tag are set by decoding and are skipped.
func scanUnsetSettings(tr *typedTree) []unsetSetting {
	type field struct {
		name string // "internal/pkg.Type.Field"
		obj  types.Object
	}
	var fields []field
	for _, p := range tr.pkgs {
		if !tr.internal(p.path) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				d, ok := d.(*ast.GenDecl)
				if !ok || d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					s := s.(*ast.TypeSpec)
					st, ok := s.Type.(*ast.StructType)
					if !ok || s.Assign.IsValid() || !s.Name.IsExported() {
						continue
					}
					for _, fl := range st.Fields.List {
						if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
							continue
						}
						for _, n := range fl.Names {
							if n.IsExported() {
								fields = append(fields, field{tr.shortName(p.path, s.Name.Name+"."+n.Name), tr.info.Defs[n]})
							}
						}
					}
				}
			}
		}
	}

	set := make(map[types.Object]bool)
	setIdent := func(id *ast.Ident) {
		if obj := tr.info.Uses[id]; obj != nil {
			set[origin(obj)] = true
		}
	}
	setSel := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			setIdent(sel.Sel)
		}
	}
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						kv, isKV := e.(*ast.KeyValueExpr)
						if !isKV {
							if st, ok := tr.info.Types[n].Type.Underlying().(*types.Struct); ok {
								for i := range st.NumFields() {
									set[st.Field(i).Origin()] = true
								}
							}
							break
						}
						if id, ok := kv.Key.(*ast.Ident); ok {
							setIdent(id)
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, l := range n.Lhs {
							setSel(l)
						}
					}
				case *ast.IncDecStmt:
					setSel(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setSel(n.X)
					}
				}
				return true
			})
		}
	}

	var out []unsetSetting
	for _, fl := range fields {
		if !set[fl.obj] {
			out = append(out, unsetSetting{name: fl.name, pos: scanFset.Position(fl.obj.Pos()).String()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
