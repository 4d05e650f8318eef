package experiments_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zombiescope/internal/experiments"
	"zombiescope/internal/experiments/anomalytest"
	"zombiescope/internal/zombie"
)

const anomalyMatrixSeed = 0xa401

// runAnomalyMatrix evaluates every detector against every generator
// kind and returns finding counts keyed [generator][detector], plus the
// full reports for diagnostics.
func runAnomalyMatrix(t *testing.T) (map[string]map[string]int, map[string]*zombie.AnomalyReport) {
	t.Helper()
	kinds := anomalytest.Kinds()
	matrix := make(map[string]map[string]int, len(kinds))
	reports := make(map[string]*zombie.AnomalyReport, len(kinds))
	for _, kind := range kinds {
		sc, err := anomalytest.Generate(kind, anomalyMatrixSeed)
		if err != nil {
			t.Fatalf("scenario %s: %v", kind, err)
		}
		h, err := zombie.BuildHistory(sc.Updates, nil)
		if err != nil {
			t.Fatalf("scenario %s: build history: %v", kind, err)
		}
		dets, err := zombie.BuildAnomalyDetectors(nil, zombie.AnomalyConfig{Intervals: sc.Intervals})
		if err != nil {
			t.Fatalf("scenario %s: %v", kind, err)
		}
		rep := zombie.RunAnomalyDetectors(h, sc.Window, dets, 0)
		matrix[kind] = rep.ByDetector
		reports[kind] = rep
	}
	return matrix, reports
}

// TestAnomalyFalsePositiveMatrix is the 4x4 cross-scenario gate: each
// generator's pathology must fire the detector of the same name and no
// other. A MOAS flip must not look like a zombie; a community storm must
// not look like a MOAS conflict.
func TestAnomalyFalsePositiveMatrix(t *testing.T) {
	matrix, reports := runAnomalyMatrix(t)
	kinds := anomalytest.Kinds()
	for _, gen := range kinds {
		for _, det := range kinds {
			n := matrix[gen][det]
			if gen == det && n == 0 {
				t.Errorf("generator %s: detector %s found nothing (diagonal must fire)", gen, det)
			}
			if gen != det && n != 0 {
				t.Errorf("generator %s: detector %s fired %d findings (off-diagonal must be zero):", gen, det, n)
				for _, a := range reports[gen].Filter(det) {
					t.Errorf("  %s %s peer=%v [%v, %v] count=%d %s", a.Kind, a.Prefix, a.Peer, a.Start, a.End, a.Count, a.Detail)
				}
			}
		}
	}
	golden := filepath.Join("testdata", "anomaly_matrix.golden")
	got := formatAnomalyMatrix(matrix)
	if *experiments.Update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("matrix drifted from golden (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// formatAnomalyMatrix renders the generator x detector counts as a
// fixed-order text table.
func formatAnomalyMatrix(matrix map[string]map[string]int) string {
	kinds := anomalytest.Kinds()
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "gen\\det")
	for _, det := range kinds {
		fmt.Fprintf(&b, " %14s", det)
	}
	b.WriteByte('\n')
	for _, gen := range kinds {
		fmt.Fprintf(&b, "%-14s", gen)
		for _, det := range kinds {
			fmt.Fprintf(&b, " %14d", matrix[gen][det])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
