package zombiescope_test

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"testing"
)

const sizeGolden = "testdata/size.golden"

// TestSizeLedger counts the lines of shipped Go per package of both
// modules — the files the dead-code scans load: no _test.go file, no
// test-support package, build constraints of this platform with cgo off —
// against testdata/size.golden. It sets no cap: a change that grows or
// shrinks a package rewrites the golden with -update, and the golden's
// diff is the change's size, package by package.
func TestSizeLedger(t *testing.T) {
	tr := loadShippedTree(t)
	lines := make(map[string]int, len(tr.pkgs))
	paths := make([]string, 0, len(tr.pkgs))
	total := 0
	for _, p := range tr.pkgs {
		for _, f := range p.files {
			n := scanFset.File(f.Pos()).LineCount()
			lines[p.path] += n
			total += n
		}
		paths = append(paths, p.path)
	}
	sort.Strings(paths)
	var got bytes.Buffer
	got.WriteString("# Lines of shipped Go per package of both modules (TestSizeLedger;\n# -update rewrites). No cap: the diff of this file is a change's size.\n")
	for _, p := range paths {
		fmt.Fprintf(&got, "%s\t%d\n", p, lines[p])
	}
	fmt.Fprintf(&got, "total\t%d\n", total)
	if *update {
		if err := os.WriteFile(sizeGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sizeGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("shipped line counts diverge from %s (run with -update to accept):\n%s", sizeGolden, got.Bytes())
	}
}
