// Worker-count independence through the exported API: the engine-level
// half of the differential harness. The oracle half — the same test names
// against the row/map reference store, the row sweep and the reader-loop
// lifespan tracker, on its own randomized beacon scenarios — lives in
// internal/zombie (diff_test.go), next to the oracles, which are test-only
// code there. What stays here needs nothing unexported: on the seeded
// all-pathology scenarios of internal/experiments, every worker count must
// produce the History and Report of one inline worker.
package pipeline_test

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zombiescope/internal/experiments/anomalytest"
	"zombiescope/internal/mrt"
	"zombiescope/internal/zombie"
)

// diffParallelism is the set of worker counts checked against the
// one-inline-worker output (Parallelism 0).
var diffParallelism = []int{1, 2, 8}

// diffScenario generates the seed's all-pathology scenario and the track
// set of its beacon prefixes.
func diffScenario(t *testing.T, seed uint64) (*anomalytest.Scenario, zombie.TrackSet) {
	t.Helper()
	sc, err := anomalytest.Generate("all", seed)
	if err != nil {
		t.Fatal(err)
	}
	track := make(zombie.TrackSet)
	for _, iv := range sc.Intervals {
		track[iv.Prefix] = true
	}
	return sc, track
}

// TestParallelMatchesSequential: randomized scenarios, every parallelism
// level, deep equality on the History and the Report.
func TestParallelMatchesSequential(t *testing.T) {
	const scenarios = 50
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, track := diffScenario(t, seed)
			seqHist, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			seqDet := &zombie.Detector{RecordPaths: true}
			seqRep := seqDet.DetectFromHistory(seqHist, sc.Intervals)
			if len(seqRep.Outbreaks) == 0 {
				t.Fatal("no outbreak — the scenario no longer exercises the detector")
			}
			for _, par := range diffParallelism {
				h, err := zombie.BuildHistoryParallel(sc.Updates, track, par)
				if err != nil {
					t.Fatalf("parallelism %d: BuildHistoryParallel: %v", par, err)
				}
				if !reflect.DeepEqual(h, seqHist) {
					t.Errorf("parallelism %d: History diverges from sequential", par)
				}
				det := &zombie.Detector{RecordPaths: true, Parallelism: par}
				if rep := det.DetectFromHistory(h, sc.Intervals); !reflect.DeepEqual(rep, seqRep) {
					t.Errorf("parallelism %d: Report diverges from sequential", par)
				}
			}
		})
	}
}

// splitStream cuts an MRT byte stream into nseg record-aligned segments
// of roughly equal size, so the streams-based builders see real
// multi-segment input.
func splitStream(t *testing.T, data []byte, nseg int) [][]byte {
	t.Helper()
	var bounds []int
	pos := 0
	for pos < len(data) {
		length := binary.BigEndian.Uint32(data[pos+8:])
		pos += mrt.HeaderLen + int(length)
		bounds = append(bounds, pos)
	}
	if len(bounds) < nseg {
		nseg = len(bounds)
	}
	var segs [][]byte
	start := 0
	for s := 1; s <= nseg; s++ {
		end := bounds[s*len(bounds)/nseg-1]
		if end > start {
			segs = append(segs, data[start:end])
			start = end
		}
	}
	return segs
}

// TestColumnarKernelMatchesRowSweep: the row sweep is test-only code of
// internal/zombie now, and the test of this name there compares the kernel
// with it. This half checks the kernel's range cut from outside: across
// detector modes, every worker count must reproduce the single-range
// (one inline worker) report, which the other half ties to the row sweep.
func TestColumnarKernelMatchesRowSweep(t *testing.T) {
	const scenarios = 50
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, track := diffScenario(t, seed)
			h, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				det  zombie.Detector
			}{
				{"default", zombie.Detector{}},
				{"paths", zombie.Detector{RecordPaths: true}},
				{"nosessions", zombie.Detector{IgnoreSessionState: true, RecordPaths: true}},
				{"threshold30m", zombie.Detector{Threshold: 30 * time.Minute, RecordPaths: true}},
			} {
				inline := mode.det
				want := inline.DetectFromHistory(h, sc.Intervals)
				for _, par := range diffParallelism {
					col := mode.det
					col.Parallelism = par
					if got := col.DetectFromHistory(h, sc.Intervals); !reflect.DeepEqual(got, want) {
						t.Errorf("%s, parallelism %d: ranged kernel diverges from the single range", mode.name, par)
					}
				}
			}
		})
	}
}

// TestStreamsBuildMatchesConcatenated: building from segmented streams
// (the mmap ingest shape) must produce the identical History and Report
// as building from each collector's concatenated stream.
func TestStreamsBuildMatchesConcatenated(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc, track := diffScenario(t, seed)
			want, err := zombie.BuildHistory(sc.Updates, track)
			if err != nil {
				t.Fatal(err)
			}
			streams := make(map[string][][]byte, len(sc.Updates))
			for name, data := range sc.Updates {
				streams[name] = splitStream(t, data, 3)
			}
			seq := &zombie.Detector{RecordPaths: true}
			wantRep, err := seq.Detect(sc.Updates, sc.Intervals)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range diffParallelism {
				h, err := zombie.BuildHistoryStreams(streams, track, par)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(h, want) {
					t.Errorf("parallelism %d: streams History diverges from concatenated build", par)
				}
				d := &zombie.Detector{RecordPaths: true, Parallelism: par}
				got, err := d.DetectStreams(streams, sc.Intervals)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(got, wantRep) {
					t.Errorf("parallelism %d: DetectStreams diverges from Detect", par)
				}
			}
		})
	}
}

// TestScalingBitIdentical pins worker-count independence while the
// runtime itself is constrained: for each GOMAXPROCS in {1, 2, 8}, the
// history build and the detection kernel at workers 1/2/8 must be
// bit-identical to the one-inline-worker results computed before any
// GOMAXPROCS change.
func TestScalingBitIdentical(t *testing.T) {
	sc, track := diffScenario(t, 99)
	wantHist, err := zombie.BuildHistory(sc.Updates, track)
	if err != nil {
		t.Fatal(err)
	}
	seq := &zombie.Detector{RecordPaths: true}
	wantRep := seq.DetectFromHistory(wantHist, sc.Intervals)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, par := range diffParallelism {
			h, err := zombie.BuildHistoryParallel(sc.Updates, track, par)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %v", procs, par, err)
			}
			if !reflect.DeepEqual(h, wantHist) {
				t.Errorf("GOMAXPROCS=%d workers=%d: History diverges", procs, par)
			}
			det := &zombie.Detector{RecordPaths: true, Parallelism: par}
			if rep := det.DetectFromHistory(h, sc.Intervals); !reflect.DeepEqual(rep, wantRep) {
				t.Errorf("GOMAXPROCS=%d workers=%d: Report diverges", procs, par)
			}
		}
	}
}

// TestDetectEndToEndParallel covers the Detector.Detect wiring (archive →
// history → report in one call) at every parallelism level.
func TestDetectEndToEndParallel(t *testing.T) {
	sc, _ := diffScenario(t, 1234)
	seq := &zombie.Detector{}
	want, err := seq.Detect(sc.Updates, sc.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range diffParallelism {
		d := &zombie.Detector{Parallelism: par}
		got, err := d.Detect(sc.Updates, sc.Intervals)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: Detect report diverges from sequential", par)
		}
	}
}
