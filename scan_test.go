package zombiescope_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// typedTree is a module's shipped code, parsed and type-checked once:
// the non-_test.go files of every package whose name does not end in
// "test" (test-support packages such as obstest are test code), chosen
// by build constraints for this platform with cgo off. The dead-code
// scans resolve every use to the object it names, so a field or method
// is never taken for another one that shares its name.
type typedTree struct {
	module string
	pkgs   []*typedPkg // in import order: a package follows those it imports
	info   *types.Info // of every file of every package
}

// typedPkg is one package of a typedTree.
type typedPkg struct {
	path     string // import path
	files    []*ast.File
	types    *types.Package
	checking bool
}

var (
	// scanFset holds the positions of every tree the scans load and of
	// the standard library the source importer checks for them.
	scanFset = token.NewFileSet()
	// stdImporter type-checks imports outside the loaded tree from
	// GOROOT's source, once per package for all loads. Cgo is off, so
	// packages such as net and os/user take their pure-Go files and no C
	// toolchain is needed.
	stdImporter = sync.OnceValue(func() types.Importer {
		build.Default.CgoEnabled = false
		return importer.ForCompiler(scanFset, "source", nil)
	})
	// shippedTree is this repository, loaded for both scans. Walking
	// from the root also loads bench/, its own module zombiescope/bench,
	// under its own import path.
	shippedTree = sync.OnceValues(func() (*typedTree, error) {
		return loadTree(".", "zombiescope")
	})
)

// loadShippedTree is shippedTree, failing t on a load error.
func loadShippedTree(t *testing.T) *typedTree {
	t.Helper()
	tr, err := shippedTree()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// loadTree parses and type-checks the shipped packages under root,
// whose import paths are module joined with their directory; testdata
// and dot directories are skipped. Imports of the tree's own packages
// resolve to the loaded packages, all others to stdImporter. Any type
// error fails the load.
func loadTree(root, module string) (*typedTree, error) {
	ctx := build.Default
	ctx.CgoEnabled = false
	std := stdImporter()
	byPath := make(map[string]*typedPkg)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if ok, err := ctx.MatchFile(p, name); err != nil || !ok {
				if err != nil {
					return err
				}
				continue
			}
			f, err := parser.ParseFile(scanFset, filepath.Join(p, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			if strings.HasSuffix(f.Name.Name, "test") {
				continue
			}
			rel, err := filepath.Rel(root, p)
			if err != nil {
				return err
			}
			ip := path.Join(module, filepath.ToSlash(rel))
			if byPath[ip] == nil {
				byPath[ip] = &typedPkg{path: ip}
			}
			byPath[ip].files = append(byPath[ip].files, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tr := &typedTree{module: module, info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	var typeErrs []error
	var check func(*typedPkg) (*types.Package, error)
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if tp := byPath[p]; tp != nil {
				return check(tp)
			}
			return std.Import(p)
		}),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	check = func(tp *typedPkg) (*types.Package, error) {
		switch {
		case tp.types != nil:
			return tp.types, nil
		case tp.checking:
			return nil, fmt.Errorf("import cycle through %s", tp.path)
		}
		tp.checking = true
		pkg, _ := conf.Check(tp.path, scanFset, tp.files, tr.info)
		tp.types = pkg
		tr.pkgs = append(tr.pkgs, tp)
		return pkg, nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	for _, p := range paths {
		if _, err := check(byPath[p]); err != nil {
			return nil, err
		}
	}
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type-checking %s: %d errors, first: %v", module, len(typeErrs), typeErrs[0])
	}
	return tr, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// internal reports whether pkg is a package the scans inspect: one under
// the module's internal/.
func (tr *typedTree) internal(pkg string) bool {
	return strings.HasPrefix(pkg, tr.module+"/internal/")
}

// shortName is "internal/pkg.Name[.Member]" for a declaration in pkg.
func (tr *typedTree) shortName(pkg, name string) string {
	return strings.TrimPrefix(pkg, tr.module+"/") + "." + name
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// stdInterfaces are the standard-library interfaces whose methods
// the standard library calls (fmt, errors, io, sort, heap, encoding,
// net/http, log/slog), which no selector in the tree shows being called.
var stdInterfaces = sync.OnceValues(func() ([]*types.Interface, error) {
	const src = `package std

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
)

type (
	stringer      fmt.Stringer
	formatter     fmt.Formatter
	errorer       error
	unwrapper     interface{ Unwrap() error }
	multiUnwrap   interface{ Unwrap() []error }
	iser          interface{ Is(error) bool }
	aser          interface{ As(any) bool }
	reader        io.Reader
	writer        io.Writer
	closer        io.Closer
	readerAt      io.ReaderAt
	writerTo      io.WriterTo
	readerFrom    io.ReaderFrom
	seeker        io.Seeker
	sorter        sort.Interface
	heaper        heap.Interface
	jsonMarshal   json.Marshaler
	jsonUnmarshal json.Unmarshaler
	textMarshal   encoding.TextMarshaler
	textUnmarshal encoding.TextUnmarshaler
	handler       http.Handler
	slogHandler   slog.Handler
)
`
	f, err := parser.ParseFile(scanFset, "std.go", src, 0)
	if err != nil {
		return nil, err
	}
	pkg, err := (&types.Config{Importer: stdImporter()}).Check("std", scanFset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	var out []*types.Interface
	for _, name := range pkg.Scope().Names() {
		out = append(out, pkg.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	return out, nil
})

// methodRecv is the named receiver type of a method, or nil when obj is
// not a method of a named type.
func methodRecv(obj types.Object) *types.Named {
	m, ok := obj.(*types.Func)
	if !ok || m.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}

// implementsStd reports whether m is a method of a standard-library
// interface that its receiver type, or a pointer to it, implements.
func implementsStd(m *types.Func, std []*types.Interface) bool {
	recv := methodRecv(m)
	for _, iface := range std {
		if hasMethod(iface, m.Name()) && implements(recv, iface) {
			return true
		}
	}
	return false
}

// implements reports whether t or *t implements iface.
func implements(t *types.Named, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := range iface.NumMethods() {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// TestScansResolveByObject runs both scans over a tree of one package in
// which two types share a method name and a field name. A scan that
// matched selectors by name would take B's shipped uses for A's. The tree
// also pins which keyed literals give a setting one value.
func TestScansResolveByObject(t *testing.T) {
	tr := loadSynthetic(t, map[string]string{
		"internal/a/a.go": `package a

type A struct{ X int }

// Get is called from a.go's tests only.
func (A) Get() int { return Inner() }

// Inner is called from A.Get only.
func Inner() int { return 0 }

type B struct{ X int }

func (B) Get() int  { return 1 }
func (B) Size() int { return 2 }

// String implements fmt.Stringer, which the standard library calls.
func (B) String() string { return "b" }

// Sizer is called by main, so B.Size is used through it.
type Sizer interface{ Size() int }

// T does not implement sort.Interface, so Len is not a standard method.
type T struct{}

func (T) Len() int { return 0 }

// Every literal sets C.One to 1; Two takes two constants, Left one and,
// where a literal leaves it out, zero.
type C struct{ One, Two, Left int }

// F's literals set E.On to true or, leaving E out, to false.
type E struct{ On bool }
type F struct{ E E }

// P's literals elide their &P.
type P struct{ N int }
`,
		"internal/a/a_test.go": `package a

func use() int { return A{}.Get() }
`,
		"cmd/main/main.go": `package main

import "zombiescope/internal/a"

func main() {
	var x a.A
	var b a.B
	b.X = 1
	var s a.Sizer = b
	var t a.T
	cs := []a.C{{One: 1, Two: 1, Left: 1}, {One: 1, Two: 2}}
	fs := []a.F{{E: a.E{On: true}}, {}}
	ps := []*a.P{{N: 1}, {N: 2}}
	println(x.X, b.Get(), s.Size(), t, len(cs), len(fs), len(ps))
}
`,
	})
	var exports, settings []string
	for _, e := range scanTestOnlyExports(t, tr) {
		exports = append(exports, e.name)
	}
	for _, s := range scanUnsetSettings(tr) {
		settings = append(settings, s.name)
	}
	if want := []string{"internal/a.A.Get", "internal/a.Inner", "internal/a.T.Len"}; !slices.Equal(exports, want) {
		t.Errorf("test-only exports = %q, want %q", exports, want)
	}
	if want := []string{"internal/a.A.X", "internal/a.C.One"}; !slices.Equal(settings, want) {
		t.Errorf("unset settings = %q, want %q", settings, want)
	}
}

// loadSynthetic writes files, keyed by slash-separated path, into a
// temporary directory and loads it as module zombiescope.
func loadSynthetic(t *testing.T, files map[string]string) *typedTree {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := loadTree(dir, "zombiescope")
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
