package zombiescope_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"
)

const writeOnlyGolden = "testdata/writeonly.golden"

// TestWriteOnlyFields pins the data that shipped code stores and never
// reads: the fields of every struct declared in a shipped file of either
// module, exported or not, that no shipped code reads, and the named
// parameters of plain functions whose bodies never read them. A value
// nothing reads is computed, stored and carried for nobody; it should be
// gone. A finding fails here unless the golden lists it with the reason it
// stays. Run with -update to rewrite the golden: listed reasons are kept
// and new entries get an empty one, which fails until it is filled in.
//
// A field is written where it is the left-hand side of an assignment or
// op-assignment, the operand of ++ or --, or a key of a composite literal;
// a literal without keys writes every field. Every other use that
// types.Info.Uses resolves to the field reads it, and so do:
//   - the embedded fields a promoted selector passes through;
//   - a conversion from a struct type, which reads every field of it;
//   - hashing and comparison: every field of a struct used as a map key or
//     compared with == or != is read;
//   - reflection: the exported fields of every type an argument of a call
//     into encoding/json (to encode or to decode), fmt, log/slog or a
//     template reaches, through
//     pointers, slices, arrays, maps and exported fields, are read. An
//     interface-typed parameter that a shipped function passes straight
//     to such a call is followed one call deep, so livefeed's
//     WriteFrame(w, t, v any) reflects over what its callers pass as v.
//
// A parameter is checked only for functions without a receiver whose
// every use is a call: a method's or a function value's signature is
// fixed by what it must match, so an unread parameter there is no waste.
func TestWriteOnlyFields(t *testing.T) {
	found := scanWriteOnly(loadShippedTree(t))
	checkGolden(t, writeOnlyGolden, "# Struct fields that shipped code never reads, and function parameters\n# that their bodies never read, each with the reason it stays\n# (TestWriteOnlyFields).\n", found)
}

// TestWriteOnlyRules runs the scan over a tree that writes a field in
// each way a field is written and reads one in each way a field is read.
// Only the fields named w... and the parameter named unused are listed.
func TestWriteOnlyRules(t *testing.T) {
	tr := loadSynthetic(t, map[string]string{
		"internal/w/w.go": `package w

import (
	"encoding/json"
	"fmt"
)

type W struct{ wAssign, wOpAssign, wIncDec, wKeyed, read int }

// U is written by a literal without keys.
type U struct{ read, wUnkeyed int }

type Inner struct{ deep int }

// R reads Inner through the promoted selector r.deep.
type R struct{ Inner }

// src is read by its conversion to dst, dst by fmt.
type src struct{ A int }
type dst struct{ A int }

type key struct{ a, b int }
type eq struct{ a int }

// J reaches encoding/json, which reads only exported fields.
type J struct {
	Out     int
	wHidden int
}

// H reaches encoding/json through send's any parameter.
type H struct{ Head int }

func send(v any) { json.Marshal(v) }

// f never reads unused; g's signature is fixed by its use as a value.
func f(read, unused int) int { return read }
func g(unused int)           {}

// A method's parameters are not checked.
func (W) m(unused int) {}

func Run() {
	w := W{wKeyed: 1}
	w.wAssign = 1
	w.wOpAssign += 2
	w.wIncDec++
	w.read = 3
	println(w.read, U{1, 2}.read)
	var r R
	println(r.deep)
	fmt.Println(dst(src{A: 1}))
	m := map[key]bool{{a: 1, b: 2}: true}
	println(len(m), eq{a: 1} == eq{})
	json.Marshal(J{Out: 1, wHidden: 2})
	send(H{Head: 1})
	var pairs []struct{ x int }
	pairs = append(pairs, struct{ x int }{1})
	println(pairs[0].x, f(1, 2))
	h := g
	h(1)
}
`,
	})
	var got []string
	for _, f := range scanWriteOnly(tr) {
		got = append(got, f.name)
	}
	want := []string{
		"internal/w.J.wHidden", "internal/w.U.wUnkeyed",
		"internal/w.W.wAssign", "internal/w.W.wIncDec", "internal/w.W.wKeyed", "internal/w.W.wOpAssign",
		"internal/w.f(unused)",
	}
	if !slices.Equal(got, want) {
		t.Errorf("write-only = %q, want %q", got, want)
	}
}

// reflectPkgs are the standard-library packages that read a value's
// exported fields by reflection.
var reflectPkgs = map[string]bool{
	"encoding/json": true,
	"fmt":           true,
	"log/slog":      true,
	"text/template": true,
	"html/template": true,
}

// scanWriteOnly lists the fields and parameters TestWriteOnlyFields pins.
func scanWriteOnly(tr *typedTree) []finding {
	type decl struct {
		name string
		obj  *types.Var
		fn   types.Object  // a parameter's function
		anon *types.Struct // an unnamed struct type declaring the field
		i    int           // the field's index in anon
	}
	var fields, params []decl
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			var stack []ast.Node
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.StructType:
					st := tr.info.Types[n].Type.(*types.Struct)
					var anon *types.Struct
					if ts, ok := stack[len(stack)-2].(*ast.TypeSpec); !ok || ts.Type != n {
						anon = st
					}
					prefix := declPath(stack)
					for i := range st.NumFields() {
						if v := st.Field(i); v.Name() != "_" {
							fields = append(fields, decl{name: tr.shortName(p.path, prefix+v.Name()), obj: v, anon: anon, i: i})
						}
					}
				case *ast.FuncDecl:
					if n.Recv != nil || n.Body == nil {
						break
					}
					for _, fl := range n.Type.Params.List {
						for _, id := range fl.Names {
							if v, ok := tr.info.Defs[id].(*types.Var); ok && id.Name != "_" {
								params = append(params, decl{name: tr.shortName(p.path, n.Name.Name+"("+id.Name+")"), obj: v, fn: tr.info.Defs[n.Name]})
							}
						}
					}
				}
				return true
			})
		}
	}

	read := make(map[types.Object]bool)
	notRead := make(map[*ast.Ident]bool) // identifiers in write position
	called := make(map[*ast.Ident]bool)  // identifiers naming a called function
	readAll := func(t types.Type, reflecting bool) {
		visitFields(t, reflecting, func(v *types.Var) { read[v.Origin()] = true })
	}
	writeSel := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := tr.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				notRead[sel.Sel] = true
			}
		}
	}
	callee := func(call *ast.CallExpr) *types.Func {
		id, ok := calleeIdent(call)
		if !ok {
			return nil
		}
		called[id] = true
		fn, _ := tr.info.Uses[id].(*types.Func)
		return fn
	}
	reflects := func(fn *types.Func) bool {
		return fn != nil && fn.Pkg() != nil && reflectPkgs[fn.Pkg().Path()]
	}
	// reflectParams holds the interface-typed parameters that their
	// function passes straight to a reflecting call.
	reflectParams := make(map[*types.Var]bool)
	var calls []*ast.CallExpr
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						writeSel(l)
					}
				case *ast.IncDecStmt:
					writeSel(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								if v, ok := tr.info.Uses[id].(*types.Var); ok && v.IsField() {
									notRead[id] = true
								}
							}
						}
					}
				case *ast.CallExpr:
					calls = append(calls, n)
					if tv := tr.info.Types[n.Fun]; tv.IsType() && len(n.Args) == 1 {
						readAll(tr.info.Types[n.Args[0]].Type, false)
					}
					if reflects(callee(n)) {
						for _, a := range n.Args {
							if id, ok := ast.Unparen(a).(*ast.Ident); ok {
								if v, ok := tr.info.Uses[id].(*types.Var); ok && !v.IsField() && types.IsInterface(v.Type()) {
									reflectParams[v] = true
								}
							}
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(tr.info.Types[n.X].Type, false)
						readAll(tr.info.Types[n.Y].Type, false)
					}
				}
				return true
			})
		}
	}
	// The arguments of reflecting calls, and of reflecting parameters
	// one call deep.
	for _, call := range calls {
		fn := callee(call)
		if fn == nil {
			continue
		}
		params := fn.Origin().Type().(*types.Signature).Params()
		for i, a := range call.Args {
			if reflects(fn) || i < params.Len() && reflectParams[params.At(i)] {
				readAll(tr.info.Types[a].Type, true)
			}
		}
	}
	for _, tv := range tr.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			readAll(m.Key(), false)
		}
	}
	for _, s := range tr.info.Selections {
		t := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			st, ok := derefStruct(t)
			if !ok {
				break
			}
			f := st.Field(i)
			read[f.Origin()] = true
			t = f.Type()
		}
	}
	// A parameter is read by any use; a function is used as a value by
	// any use that does not call it.
	asValue := make(map[types.Object]bool)
	for id, obj := range tr.info.Uses {
		obj = origin(obj)
		if _, ok := obj.(*types.Var); ok && !notRead[id] {
			read[obj] = true
		}
		if !called[id] {
			asValue[obj] = true
		}
	}

	// Identical unnamed struct types declare distinct fields: the
	// element type of var s []struct{ x int } and of the literal appended
	// to it. A read of one reads the same field of the others.
	var anonRead []decl
	for _, fl := range fields {
		if fl.anon != nil && read[fl.obj] {
			anonRead = append(anonRead, fl)
		}
	}
	var out []finding
	for _, fl := range fields {
		if !read[fl.obj] && (fl.anon == nil || !slices.ContainsFunc(anonRead, func(r decl) bool {
			return r.i == fl.i && types.Identical(r.anon, fl.anon)
		})) {
			out = append(out, finding{name: fl.name, pos: scanFset.Position(fl.obj.Pos()).String(),
				problem: "is a field that no shipped code reads: delete it"})
		}
	}
	for _, pa := range params {
		if !read[pa.obj] && !asValue[pa.fn] {
			out = append(out, finding{name: pa.name, pos: scanFset.Position(pa.obj.Pos()).String(),
				problem: "is a parameter that its function never reads: delete it"})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// declPath names a struct type from the declarations around it, the last
// node of stack: "Type." for a type declaration, "Func.Type." for one
// inside a function, "Type.field." for a struct nested in a field's type.
func declPath(stack []ast.Node) string {
	var b strings.Builder
	for _, n := range stack[:len(stack)-1] {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Recv != nil && len(n.Recv.List) == 1 {
				b.WriteString(embeddedIdent(n.Recv.List[0].Type).Name + ".")
			}
			b.WriteString(n.Name.Name + ".")
		case *ast.TypeSpec:
			b.WriteString(n.Name.Name + ".")
		case *ast.ValueSpec:
			b.WriteString(n.Names[0].Name + ".")
		case *ast.Field:
			if len(n.Names) > 0 {
				b.WriteString(n.Names[0].Name + ".")
			}
		}
	}
	return b.String()
}

// embeddedIdent is the type name of an embedded field or receiver type
// expression: T, *T, pkg.T, T[P].
func embeddedIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return ast.NewIdent("?")
		}
	}
}

// calleeIdent is the identifier naming a call's function or method.
func calleeIdent(call *ast.CallExpr) (*ast.Ident, bool) {
	e := ast.Unparen(call.Fun)
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, true
		case *ast.SelectorExpr:
			return x.Sel, true
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil, false
		}
	}
}

// derefStruct is t's struct, through one pointer.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// visitFields calls fn for every field a value of type t holds by value:
// the fields of a struct and, in turn, of its struct and array fields. A
// reflecting reader also follows pointers, slices and maps, and reads
// only exported fields and embedded ones (whose exported fields it
// promotes).
func visitFields(t types.Type, reflecting bool, fn func(*types.Var)) {
	seen := make(map[types.Type]bool)
	var walk func(types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := range u.NumFields() {
				f := u.Field(i)
				if reflecting && !f.Exported() && !f.Embedded() {
					continue
				}
				fn(f)
				walk(f.Type())
			}
		case *types.Array:
			walk(u.Elem())
		case *types.Pointer:
			if reflecting {
				walk(u.Elem())
			}
		case *types.Slice:
			if reflecting {
				walk(u.Elem())
			}
		case *types.Map:
			if reflecting {
				walk(u.Key())
				walk(u.Elem())
			}
		}
	}
	walk(t)
}
