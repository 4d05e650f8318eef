package pipeline_test

import (
	"reflect"
	"testing"

	"zombiescope/internal/experiments/anomalytest"
	"zombiescope/internal/zombie"
)

// anomalyDiffSeeds matches the zombie harness: 50 seeded scenarios, each
// carrying every pathology at once (beacon zombie, MOAS flip,
// hyper-specific leak, community storm).
const anomalyDiffSeeds = 50

// TestAnomalyDetectorsBitIdentical is the differential determinism gate
// for the anomaly framework: for every seed, the findings must be
// bit-identical whether the history was built sequentially, by the
// parallel sharded builder at 1/2/8 workers, or from split streams — and
// whatever the detector-level parallelism. The scenario trips all four
// detectors, so each one's sweep is exercised, not just run.
func TestAnomalyDetectorsBitIdentical(t *testing.T) {
	seeds := anomalyDiffSeeds
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		sc, err := anomalytest.Generate("all", uint64(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dets, err := zombie.BuildAnomalyDetectors(nil, zombie.AnomalyConfig{Intervals: sc.Intervals})
		if err != nil {
			t.Fatal(err)
		}
		href, err := zombie.BuildHistory(sc.Updates, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref := zombie.RunAnomalyDetectors(href, sc.Window, dets, 0)
		for _, name := range zombie.AnomalyDetectorNames() {
			if ref.ByDetector[name] == 0 {
				t.Fatalf("seed %d: detector %s found nothing — the scenario no longer exercises it", seed, name)
			}
		}
		check := func(label string, rep *zombie.AnomalyReport) {
			t.Helper()
			if !reflect.DeepEqual(rep.ByDetector, ref.ByDetector) {
				t.Fatalf("seed %d: %s: counts diverge: %v != %v", seed, label, rep.ByDetector, ref.ByDetector)
			}
			if !reflect.DeepEqual(rep.Findings, ref.Findings) {
				t.Fatalf("seed %d: %s: findings diverge from sequential reference", seed, label)
			}
		}
		// Detector-level parallelism over the same history.
		for _, par := range diffParallelism {
			check("detect-par", zombie.RunAnomalyDetectors(href, sc.Window, dets, par))
		}
		// Parallel sharded builds, evaluated sequentially and in parallel.
		for _, workers := range diffParallelism {
			h, err := zombie.BuildHistoryParallel(sc.Updates, nil, workers)
			if err != nil {
				t.Fatalf("seed %d: workers %d: %v", seed, workers, err)
			}
			check("build-par", zombie.RunAnomalyDetectors(h, sc.Window, dets, 0))
			check("build+detect-par", zombie.RunAnomalyDetectors(h, sc.Window, dets, workers))
		}
		// Streams build: each collector's archive split into segments, as
		// the mmap ingest path sees it.
		streams := make(map[string][][]byte, len(sc.Updates))
		for name, data := range sc.Updates {
			streams[name] = splitStream(t, data, 3)
		}
		for _, workers := range diffParallelism {
			h, err := zombie.BuildHistoryStreams(streams, nil, workers)
			if err != nil {
				t.Fatalf("seed %d: streams workers %d: %v", seed, workers, err)
			}
			check("streams", zombie.RunAnomalyDetectors(h, sc.Window, dets, workers))
		}
	}
}
