package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"zombiescope/internal/archive"
	"zombiescope/internal/experiments/anomalytest"
)

// Golden outbreak fixture corpus: one committed synthetic scenario per
// anomaly detector (netsim-generated MRT plus the expected findings
// JSON), mirroring the TestGoldenJSON pattern. Regenerate with:
//
//	go test ./cmd/zombiehunt -run TestAnomalyGolden -update

const anomalyFixtureSeed = 0xf1c5

func anomalyFixtureDir(kind string) string {
	return filepath.Join("testdata", "anomaly", kind, "archive")
}

func anomalyGoldenFile(kind string) string {
	return filepath.Join("testdata", "anomaly", kind+".json")
}

// anomalyArgs pins the report run for one fixture: the same author
// beacon campaign the scenario generator schedules, plus -detect
// selecting just the scenario's target detector.
func anomalyArgs(kind, parallel string) []string {
	return []string{
		"-archive", anomalyFixtureDir(kind),
		"-schedule", "author",
		"-base", "2a0d:3dc1::/32",
		"-approach", "24h",
		"-stride", "24",
		"-from", "2024-06-10T00:00:00Z",
		"-to", "2024-06-11T00:00:00Z",
		"-origin", "100",
		"-detect", kind,
		"-json",
		"-parallel", parallel,
	}
}

func writeAnomalyFixture(t *testing.T, kind string) {
	t.Helper()
	sc, err := anomalytest.Generate(kind, anomalyFixtureSeed)
	if err != nil {
		t.Fatal(err)
	}
	dir := anomalyFixtureDir(kind)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := archive.Write(dir, &archive.Set{Updates: sc.Updates}); err != nil {
		t.Fatal(err)
	}
}

func TestAnomalyGolden(t *testing.T) {
	for _, kind := range anomalytest.Kinds() {
		t.Run(kind, func(t *testing.T) {
			golden := anomalyGoldenFile(kind)
			if *update {
				writeAnomalyFixture(t, kind)
				var buf bytes.Buffer
				if err := run(anomalyArgs(kind, "0"), &buf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s and %s", anomalyFixtureDir(kind), golden)
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			want := canonicalJSON(t, data)

			// The committed expectation must actually contain the
			// scenario's pathology: at least one finding from the detector
			// of the same name.
			var rep struct {
				Anomalies *struct {
					ByDetector map[string]int `json:"by_detector"`
				} `json:"anomalies"`
			}
			if err := json.Unmarshal(data, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.Anomalies == nil || rep.Anomalies.ByDetector[kind] == 0 {
				t.Fatalf("golden for %s scenario has no %s findings", kind, kind)
			}

			for _, par := range []string{"0", "1", "4"} {
				var buf bytes.Buffer
				if err := run(anomalyArgs(kind, par), &buf); err != nil {
					t.Fatalf("-parallel %s: %v", par, err)
				}
				got := canonicalJSON(t, buf.Bytes())
				if !bytes.Equal(got, want) {
					t.Errorf("-parallel %s: report diverges from golden\n--- got ---\n%s\n--- want ---\n%s", par, got, want)
				}
			}
		})
	}
}
