package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
)

// Regenerate the committed fixture and golden file with:
//
//	go test ./cmd/zombiehunt -run TestGoldenJSON -update
var update = flag.Bool("update", false, "regenerate testdata fixture and golden file")

const (
	fixtureDir = "testdata/archive"
	goldenFile = "testdata/golden.json"
)

// goldenArgs pins every input of the golden run. The window covers one day
// of the author 15-day schedule at stride 8 (an announcement every 2h).
func goldenArgs(parallel string) []string {
	return []string{
		"-archive", fixtureDir,
		"-schedule", "author",
		"-base", "2a0d:3dc1::/32",
		"-approach", "15d",
		"-stride", "8",
		"-from", "2024-06-10T00:00:00Z",
		"-to", "2024-06-11T00:00:00Z",
		"-origin", "100",
		"-lifespans",
		"-json",
		"-parallel", parallel,
	}
}

func goldenSchedule() beacon.Schedule {
	return &beacon.AuthorSchedule{
		Base:       netip.MustParsePrefix("2a0d:3dc1::/32"),
		OriginAS:   100,
		Approach:   beacon.Recycle15d,
		SlotStride: 8,
	}
}

// writeFixture simulates the golden scenario — a wedged link plus a noisy
// collector peer, enough for outbreaks, lifespans and a root cause — and
// writes the MRT archive the golden run loads.
func writeFixture(t *testing.T) {
	t.Helper()
	g := topology.New()
	for _, a := range []struct {
		asn  bgp.ASN
		tier int
	}{{1, 1}, {2, 1}, {10, 2}, {11, 2}, {12, 2}, {100, 3}, {200, 3}, {300, 3}} {
		g.AddAS(a.asn, a.tier)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddP2P(1, 2))
	must(g.AddC2P(10, 1))
	must(g.AddC2P(11, 1))
	must(g.AddC2P(11, 2))
	must(g.AddC2P(12, 2))
	must(g.AddC2P(100, 10))
	must(g.AddC2P(200, 11))
	must(g.AddC2P(300, 12))

	sim := netsim.New(g, netsim.Config{Seed: 4242})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)
	for _, s := range []netsim.Session{
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("2001:db8:feed::200"), AFI: bgp.AFIIPv6},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("2001:db8:feed::300"), AFI: bgp.AFIIPv6},
	} {
		must(sim.AddCollectorSession(s))
	}

	from := time.Date(2024, 6, 10, 0, 0, 0, 0, time.UTC)
	to := time.Date(2024, 6, 11, 0, 0, 0, 0, time.UTC)
	// A day-long wedge on 1→11: withdrawals never reach 11, so rrc00's
	// peer 200 keeps reporting the beacons long past every withdrawal.
	sim.Faults().WedgeLink(1, 11, 0, from.Add(3*time.Hour), to.Add(20*time.Hour), nil)
	sim.Faults().DropCollectorWithdrawals(300, 0.4, nil)

	for _, ev := range goldenSchedule().Events(from, to) {
		if ev.Announce {
			must(sim.ScheduleAnnounce(ev.At, 100, ev.Prefix, ev.Aggregator))
		} else {
			must(sim.ScheduleWithdraw(ev.At, 100, ev.Prefix))
		}
	}

	sim.EstablishCollectorSessions(from.Add(-time.Hour))
	for at := from.Add(8 * time.Hour); at.Before(to.Add(24 * time.Hour)); at = at.Add(8 * time.Hour) {
		sim.Run(at)
		fleet.SnapshotRIBs(at)
	}
	sim.RunAll()
	must(fleet.Err())

	must(os.RemoveAll(fixtureDir))
	must(os.MkdirAll(filepath.Dir(fixtureDir), 0o755))
	must(archive.Write(fixtureDir, &archive.Set{Updates: fleet.UpdatesData(), Dumps: fleet.DumpData()}))
}

// canonicalJSON re-marshals a JSON document through a generic value, so keys
// come out sorted and formatting is normalized before comparison.
func canonicalJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestGoldenJSON(t *testing.T) {
	if *update {
		writeFixture(t)
		var buf bytes.Buffer
		if err := run(goldenArgs("0"), &buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s", fixtureDir, buf.Len(), goldenFile)
	}
	golden, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := canonicalJSON(t, golden)

	// The sequential run and every parallel run must match the committed
	// golden byte for byte after canonicalization.
	for _, par := range []string{"0", "1", "4"} {
		var buf bytes.Buffer
		if err := run(goldenArgs(par), &buf); err != nil {
			t.Fatalf("-parallel %s: %v", par, err)
		}
		got := canonicalJSON(t, buf.Bytes())
		if !bytes.Equal(got, want) {
			t.Errorf("-parallel %s: JSON report diverges from golden file\n--- got ---\n%s\n--- want ---\n%s",
				par, got, want)
		}
	}
}

// TestTraceOutput runs the golden scenario with -trace and checks the
// emitted Chrome trace-event JSON carries the detection stack's spans.
func TestTraceOutput(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(append(goldenArgs("4"), "-trace", traceFile), &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	names := make(map[string]bool)
	var sealArgs map[string]any
	for _, ev := range events {
		if ev["ph"] != "X" {
			t.Errorf("event phase %v, want X", ev["ph"])
		}
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
		// The history seal says what it merged and whether the input was
		// in order (the lifespan merge shares the span name, not the args).
		if args, _ := ev["args"].(map[string]any); ev["name"] == "zombie.merge" && args["events"] != nil {
			sealArgs = args
		}
		// A fold says how many chunks it cut and how many bytes a cut's
		// walk read ahead of their decode: at most all of them.
		if args, _ := ev["args"].(map[string]any); ev["name"] == "pipeline.fold" {
			chunks, _ := args["chunks"].(float64)
			size, _ := args["bytes"].(float64)
			walked, ok := args["walked_bytes"].(float64)
			if chunks < 1 || size <= 0 || !ok || walked > size {
				t.Errorf("pipeline.fold args %v: want chunks >= 1, bytes > 0 and walked_bytes <= bytes", args)
			}
		}
	}
	for _, key := range []string{"events", "pairs", "builders", "spans_sorted"} {
		if n, ok := sealArgs[key].(float64); !ok || (n == 0 && key != "spans_sorted") {
			t.Errorf("zombie.merge args %v: %q missing or zero", sealArgs, key)
		}
	}
	for _, want := range []string{"pipeline.fold", "pipeline.decode", "zombie.build_history", "zombie.merge", "zombie.detect"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
}

// TestDetectTraceBuildsOnce checks that -detect answers the beacon
// detection and the anomaly detectors from one history build.
func TestDetectTraceBuildsOnce(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := run(append(goldenArgs("4"), "-detect", "all", "-trace", traceFile), &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	builds := 0
	for _, ev := range events {
		if ev["name"] == "zombie.build_history" {
			builds++
		}
	}
	if builds != 1 {
		t.Errorf("trace has %d zombie.build_history spans, want 1", builds)
	}
}

// TestProfileOutput runs the golden scenario with -cpuprofile and
// -memprofile and checks both files come out as non-empty gzipped
// protobuf profiles (pprof files start with the gzip magic).
func TestProfileOutput(t *testing.T) {
	dir := t.TempDir()
	cpuFile := filepath.Join(dir, "cpu.pprof")
	memFile := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	args := append(goldenArgs("4"), "-cpuprofile", cpuFile, "-memprofile", memFile)
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpuFile, memFile} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Errorf("%s: not a gzipped pprof profile (%d bytes)", filepath.Base(path), len(data))
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-from", "not-a-time"}, &buf); err == nil {
		t.Error("bad -from accepted")
	}
	if err := run(goldenArgs("0")[:0], &buf); err == nil {
		t.Error("missing -from/-to accepted")
	}
	for _, th := range []string{"0", "-30m"} {
		if err := run(append(goldenArgs("0"), "-threshold", th), &buf); err == nil {
			t.Errorf("-threshold %s accepted", th)
		}
	}
}
