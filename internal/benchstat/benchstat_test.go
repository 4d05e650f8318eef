package benchstat

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: zombiescope
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPipelineDetect/workers=0-8         	       1	15710687 ns/op	 120.71 MB/s	10892792 B/op	   12031 allocs/op
BenchmarkPipelineDetect/workers=0-8         	       1	14621272 ns/op	 129.71 MB/s	10882280 B/op	   11463 allocs/op
BenchmarkPipelineDetect/workers=0-8         	       1	13623592 ns/op	 139.21 MB/s	10882328 B/op	   11465 allocs/op
BenchmarkPipelineDetect/workers=4-8         	       1	15798933 ns/op	 120.04 MB/s	17354832 B/op	   12218 allocs/op
BenchmarkPipelineDetect/workers=4-8         	       1	15099000 ns/op	 125.61 MB/s	17354000 B/op	   12209 allocs/op
BenchmarkPipelineDetect/workers=4-8         	       1	15009013 ns/op	 126.36 MB/s	17355100 B/op	   12213 allocs/op
PASS
ok  	zombiescope	2.345s
`

func ptr(v float64) *float64 { return &v }

func testBaseline() *Baseline {
	return &Baseline{
		Benchmark:    "BenchmarkPipelineDetect",
		TolerancePct: 20,
		Baseline: map[string]Metric{
			"workers=0": {BytesPerOp: ptr(10882328), AllocsPerOp: ptr(11465)},
			"workers=4": {BytesPerOp: ptr(17354832), AllocsPerOp: ptr(12213)},
		},
	}
}

func parse(t *testing.T, out string) map[string][]Metric {
	t.Helper()
	samples, err := ParseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseRun(t *testing.T) {
	samples := parse(t, sampleOutput)
	w0 := samples["BenchmarkPipelineDetect/workers=0"]
	if len(w0) != 3 {
		t.Fatalf("workers=0 samples = %d, want 3", len(w0))
	}
	if *w0[1].BytesPerOp != 10882280 || *w0[1].AllocsPerOp != 11463 {
		t.Errorf("workers=0 sample 1 = %v B/op, %v allocs/op", *w0[1].BytesPerOp, *w0[1].AllocsPerOp)
	}
	if len(samples["BenchmarkPipelineDetect/workers=4"]) != 3 {
		t.Error("workers=4 samples missing")
	}
	// A run without -benchmem still yields its samples, with no fields.
	bare := parse(t, "BenchmarkObsCounter-8 \t 1000000 \t 15.3 ns/op\n")["BenchmarkObsCounter"]
	if len(bare) != 1 || bare[0].AllocsPerOp != nil || bare[0].BytesPerOp != nil {
		t.Errorf("ns/op-only line parsed as %+v", bare)
	}
}

func TestParseRunRejectsEmpty(t *testing.T) {
	if _, err := ParseRun(strings.NewReader("PASS\nok \tzombiescope\t0.1s\n")); err == nil {
		t.Error("want error for output with no benchmark lines")
	}
}

func TestMedianIsPerField(t *testing.T) {
	med := Median([]Metric{
		{BytesPerOp: ptr(30), AllocsPerOp: ptr(1)},
		{BytesPerOp: ptr(10), AllocsPerOp: ptr(3)},
		{BytesPerOp: ptr(20), AllocsPerOp: ptr(2)},
	})
	if *med.BytesPerOp != 20 || *med.AllocsPerOp != 2 {
		t.Errorf("median = %v B/op, %v allocs/op, want 20 and 2", *med.BytesPerOp, *med.AllocsPerOp)
	}
	// Even sample count averages the middle pair; a field one sample
	// lacks has no median.
	med = Median([]Metric{{BytesPerOp: ptr(10), AllocsPerOp: ptr(1)}, {BytesPerOp: ptr(20)}})
	if *med.BytesPerOp != 15 || med.AllocsPerOp != nil {
		t.Errorf("even median = %+v, want 15 B/op and no allocs/op", med)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	report, ok := Compare(testBaseline(), parse(t, sampleOutput))
	if !ok {
		t.Errorf("want pass, got:\n%s", report)
	}
	for _, want := range []string{"ok   BenchmarkPipelineDetect/workers=0: allocs/op", "ok   BenchmarkPipelineDetect/workers=4: B/op"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestCompareFailsOnAllocRegression(t *testing.T) {
	base := testBaseline()
	m := base.Baseline["workers=0"]
	m.AllocsPerOp = ptr(9000) // run's median 11465 is a +27% regression
	base.Baseline["workers=0"] = m
	report, ok := Compare(base, parse(t, sampleOutput))
	if ok {
		t.Errorf("want failure, got:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkPipelineDetect/workers=0: allocs/op") {
		t.Errorf("report missing alloc failure:\n%s", report)
	}
}

func TestCompareFailsOnMissingSub(t *testing.T) {
	base := testBaseline()
	base.Baseline["workers=9"] = Metric{AllocsPerOp: ptr(1)}
	report, ok := Compare(base, parse(t, sampleOutput))
	if ok || !strings.Contains(report, "no samples") {
		t.Errorf("missing sub-benchmark must fail:\n%s", report)
	}
}

// TestCompareFailsOnMissingMetric: output run without -benchmem has no
// B/op or allocs/op columns. A field the row fences must then fail and
// say why, not pass as a zero median under any positive baseline.
func TestCompareFailsOnMissingMetric(t *testing.T) {
	for _, tc := range []struct {
		name, out, fail string
		base            *Baseline
	}{{
		name: "allocs missing",
		base: testBaseline(),
		out: "BenchmarkPipelineDetect/workers=0-2 \t 1 \t 29000000 ns/op \t 85.00 MB/s\n" +
			"BenchmarkPipelineDetect/workers=4-2 \t 1 \t 16000000 ns/op \t 150.00 MB/s\n",
		fail: "FAIL BenchmarkPipelineDetect/workers=0: allocs/op missing",
	}, {
		name: "bytes missing on a row that lists bytes",
		base: &Baseline{Benchmark: "BenchmarkArchiveIngest", TolerancePct: 25, Baseline: map[string]Metric{
			"mode=mmap": {BytesPerOp: ptr(29941), AllocsPerOp: ptr(379)},
		}},
		out:  "BenchmarkArchiveIngest/mode=mmap-2 \t 3 \t 1444073 ns/op \t 379 allocs/op\n",
		fail: "FAIL BenchmarkArchiveIngest/mode=mmap: B/op missing",
	}, {
		name: "zero-alloc fence with allocs missing",
		base: &Baseline{Benchmark: "BenchmarkObs", TolerancePct: 20, Baseline: map[string]Metric{
			"BenchmarkObsCounter": {AllocsPerOp: ptr(0)},
		}},
		out:  "BenchmarkObsCounter-2 \t 1000000 \t 15.30 ns/op\n",
		fail: "FAIL BenchmarkObsCounter: allocs/op missing",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			report, ok := Compare(tc.base, parse(t, tc.out))
			if ok {
				t.Errorf("output without the fenced field passed:\n%s", report)
			}
			if !strings.Contains(report, tc.fail) || !strings.Contains(report, "-benchmem") {
				t.Errorf("report does not name the missing field and -benchmem:\n%s", report)
			}
		})
	}
}

func TestTrimProcSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkPipelineDetect/workers=4-8": "BenchmarkPipelineDetect/workers=4",
		"BenchmarkPipelineDetect/workers=4":   "BenchmarkPipelineDetect/workers=4",
		"BenchmarkFoo-16":                     "BenchmarkFoo",
	} {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareFullNameKeys(t *testing.T) {
	// A baseline key that is itself a full "Benchmark..." name fences a
	// top-level (sub-less) benchmark; one file can cover a flat family.
	out := `BenchmarkStoreAppend-8 	  200000	      1616 ns/op	      92 B/op	       1 allocs/op
BenchmarkStoreScan-8 	      30	  24766478 ns/op	     120 B/op	       3 allocs/op
`
	base := &Baseline{
		Benchmark:    "BenchmarkStore",
		TolerancePct: 20,
		Baseline: map[string]Metric{
			"BenchmarkStoreAppend": {AllocsPerOp: ptr(1)},
			"BenchmarkStoreScan":   {AllocsPerOp: ptr(3)},
		},
	}
	samples := parse(t, out)
	report, ok := Compare(base, samples)
	if !ok {
		t.Fatalf("clean run failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "ok   BenchmarkStoreAppend: allocs/op") {
		t.Fatalf("full-name key not matched:\n%s", report)
	}

	base.Baseline["BenchmarkStoreScan"] = Metric{AllocsPerOp: ptr(1)}
	if report, ok := Compare(base, samples); ok {
		t.Fatalf("allocs regression passed the gate:\n%s", report)
	}
}

// TestCompareZeroAllocFence: an allocs/op baseline of exactly 0 is a
// fence ("this path is allocation-free"), not a skip — any allocation
// fails.
func TestCompareZeroAllocFence(t *testing.T) {
	base := &Baseline{
		Benchmark:    "BenchmarkObs",
		TolerancePct: 20,
		Baseline: map[string]Metric{
			"BenchmarkObsCounter": {AllocsPerOp: ptr(0)},
		},
	}
	clean := map[string][]Metric{"BenchmarkObsCounter": {{AllocsPerOp: ptr(0)}}}
	if report, ok := Compare(base, clean); !ok {
		t.Errorf("allocation-free run failed the zero fence:\n%s", report)
	}
	dirty := map[string][]Metric{"BenchmarkObsCounter": {{AllocsPerOp: ptr(1)}}}
	report, ok := Compare(base, dirty)
	if ok {
		t.Errorf("1 alloc/op passed a zero-alloc fence:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkObsCounter: allocs/op 1 vs baseline 0") {
		t.Errorf("report does not name the fence:\n%s", report)
	}
}

// TestCompareBytesGateOptIn: a row gates bytes_per_op exactly when it
// lists it — the fence of choice for zero-copy paths, where a
// reintroduced bulk copy moves B/op by orders of magnitude.
func TestCompareBytesGateOptIn(t *testing.T) {
	base := &Baseline{
		Benchmark:    "BenchmarkArchiveIngest",
		TolerancePct: 20,
		Baseline: map[string]Metric{
			"mode=mmap": {AllocsPerOp: ptr(380)},
		},
	}
	// A 100x B/op blow-up (the copy came back) with allocs in tolerance.
	run := map[string][]Metric{
		"BenchmarkArchiveIngest/mode=mmap": {{BytesPerOp: ptr(3e6), AllocsPerOp: ptr(385)}},
	}
	if report, ok := Compare(base, run); !ok {
		t.Errorf("a row without bytes_per_op must not gate B/op:\n%s", report)
	}
	base.Baseline["mode=mmap"] = Metric{BytesPerOp: ptr(30000), AllocsPerOp: ptr(380)}
	report, ok := Compare(base, run)
	if ok {
		t.Errorf("B/op blow-up passed a row that lists bytes_per_op:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkArchiveIngest/mode=mmap: B/op") {
		t.Errorf("report missing B/op failure:\n%s", report)
	}
}

// TestLoadBaselineRejectsUnknownFields: a timing row, cpu string or
// speedup gate left in a baseline is a load error, not a fence that
// silently never runs.
func TestLoadBaselineRejectsUnknownFields(t *testing.T) {
	for name, doc := range map[string]string{
		"ns_per_op row": `{"benchmark":"BenchmarkX","tolerance_pct":20,"baseline":{"BenchmarkX":{"ns_per_op":1,"allocs_per_op":1}}}`,
		"cpu":           `{"benchmark":"BenchmarkX","tolerance_pct":20,"cpu":"test","baseline":{"BenchmarkX":{"allocs_per_op":1}}}`,
		"speedups":      `{"benchmark":"BenchmarkX","tolerance_pct":20,"speedups":[],"baseline":{"BenchmarkX":{"allocs_per_op":1}}}`,
	} {
		path := filepath.Join(t.TempDir(), "b.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadBaseline(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCommittedBaselines: every BENCH_*.json at the repository root loads
// under the strict decoder, fences a field in every row, and is gated by a
// CI step, so neither an orphan baseline nor a stale row comes back unseen.
func TestCommittedBaselines(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json at the repository root (%v)", err)
	}
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		b, err := LoadBaseline(path)
		if err != nil {
			t.Error(err)
			continue
		}
		for key, row := range b.Baseline {
			if row.AllocsPerOp == nil && row.BytesPerOp == nil {
				t.Errorf("%s: row %q fences neither allocs_per_op nor bytes_per_op", name, key)
			}
		}
		if !strings.Contains(string(ci), "-baseline "+name) {
			t.Errorf("%s: no step in ci.yml runs benchcheck -baseline %s", name, name)
		}
	}
}
