package zombiescope_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

const settingsGolden = "testdata/settings.golden"

// TestUnsetSettings pins the exported struct fields under internal/ that
// shipped code gives one value: fields it never sets, and fields it sets
// only in keyed literals, all to one constant. Such a field holds that
// value in every run, so the behaviour another value would select is one
// no binary, bench workload, example or experiment exercises: it should
// be a constant, or gone. A finding fails here unless the golden lists it
// with the reason it stays settable. Run with -update to rewrite the
// golden: listed reasons are kept and new entries get an empty one, which
// fails until it is filled in.
func TestUnsetSettings(t *testing.T) {
	found := scanUnsetSettings(loadShippedTree(t))
	checkGolden(t, settingsGolden, "# Exported struct fields under internal/ that shipped code never sets, or\n# sets only to one constant, each with the reason it stays settable\n# (TestUnsetSettings).\n", found)
	t.Logf("%d settings with one value", len(found))
}

// scanUnsetSettings lists the exported fields of exported struct types
// declared in the tree's packages under internal/ that shipped code gives
// one value. A field is set where a shipped file names it as a key of a
// composite literal, writes a literal of its struct without keys, or
// assigns to, increments or takes the address of (as the flag package's
// *Var functions do) a selector that resolves to it. A field that is set
// only as keys whose values are constants has one value when they are
// all one constant and no keyed literal of its struct leaves it out (so
// giving it its zero value), nor leaves out a struct-typed field that
// holds it. Fields with a json tag are set by decoding and are skipped.
func scanUnsetSettings(tr *typedTree) []finding {
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

	// varied holds the fields set other than by a keyed literal's
	// constant, consts the constants keyed literals give the others, and
	// zeros the zero constant of those a keyed literal leaves out (or
	// leaves out a struct-typed field holding them).
	varied := make(map[types.Object]bool)
	consts := make(map[types.Object]map[string]bool)
	zeros := make(map[types.Object]string)
	var omit func(f *types.Var)
	omit = func(f *types.Var) {
		switch u := f.Type().Underlying().(type) {
		case *types.Basic:
			zeros[f] = "0"
			if u.Info()&types.IsBoolean != 0 {
				zeros[f] = "false"
			} else if u.Info()&types.IsString != 0 {
				zeros[f] = `""`
			}
		case *types.Struct:
			for i := range u.NumFields() {
				omit(u.Field(i).Origin())
			}
		}
	}
	setIdent := func(id *ast.Ident) {
		if obj := tr.info.Uses[id]; obj != nil {
			varied[origin(obj)] = true
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
					st, ok := derefStruct(tr.info.Types[n].Type) // an elided &T{...} has type *T
					if !ok {
						break
					}
					if len(n.Elts) > 0 {
						if _, ok := n.Elts[0].(*ast.KeyValueExpr); !ok {
							for i := range st.NumFields() {
								varied[st.Field(i).Origin()] = true
							}
							break
						}
					}
					keyed := make(map[types.Object]bool)
					for _, e := range n.Elts {
						kv := e.(*ast.KeyValueExpr)
						id := kv.Key.(*ast.Ident)
						keyed[tr.info.Uses[id]] = true
						if c := tr.info.Types[kv.Value].Value; c != nil {
							f := tr.info.Uses[id]
							if consts[f] == nil {
								consts[f] = make(map[string]bool)
							}
							consts[f][c.ExactString()] = true
						} else {
							setIdent(id)
						}
					}
					for i := range st.NumFields() {
						if f := st.Field(i).Origin(); !keyed[f] {
							omit(f)
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

	var out []finding
	for _, fl := range fields {
		if varied[fl.obj] {
			continue
		}
		switch c := consts[fl.obj]; {
		case len(c) == 0:
			out = append(out, finding{name: fl.name, pos: scanFset.Position(fl.obj.Pos()).String(),
				problem: "is settable but no shipped code sets it: make it a constant, delete it"})
		case len(c) == 1 && (zeros[fl.obj] == "" || c[zeros[fl.obj]]):
			out = append(out, finding{name: fl.name, pos: scanFset.Position(fl.obj.Pos()).String(),
				problem: "is settable but every shipped literal sets it to one constant: make it a constant, delete it"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
