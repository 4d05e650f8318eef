// Differential test harness: every worker count must be observationally
// identical to the oracles — the row/map reference store and row sweep
// (refstore_test.go) and the record-at-a-time lifespan tracker
// (lifespan_ref_test.go). Randomized netsim scenarios — session resets,
// withdrawals, zombie faults — are evaluated every way and the reports
// compared with deep equality. The harness lives in this package so the
// oracles can stay in _test.go files; internal/pipeline keeps only the
// exported-API half (worker-count independence on the anomaly scenarios).
package zombie

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/netsim"
	"zombiescope/internal/topology"
)

// diffParallelism is the set of worker counts the harness checks against
// the one-inline-worker output (Parallelism 0).
var diffParallelism = []int{1, 2, 8}

// diffGraph is the harness topology:
//
//	   1 ===== 2        (Tier-1 peering)
//	  / \     / \
//	10   11--+   12     (11 is multihomed to both Tier-1s)
//	 |    |       |
//	100  200     300    (100 = beacon origin; 200, 300 = collector peers)
func diffGraph(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.New()
	for _, a := range []struct {
		asn  bgp.ASN
		tier int
	}{{1, 1}, {2, 1}, {10, 2}, {11, 2}, {12, 2}, {100, 3}, {200, 3}, {300, 3}} {
		g.AddAS(a.asn, "", a.tier)
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
	return g
}

const diffOrigin bgp.ASN = 100

var diffPrefixPool = []netip.Prefix{
	netip.MustParsePrefix("2a0d:3dc1:1200::/48"),
	netip.MustParsePrefix("2a0d:3dc1:1300::/48"),
	netip.MustParsePrefix("93.175.146.0/24"),
	netip.MustParsePrefix("93.175.147.0/24"),
}

type diffScenario struct {
	updates   map[string][]byte
	dumps     map[string][]byte
	intervals []beacon.Interval
}

// genScenario simulates one randomized beacon campaign and returns its
// collector archives. Everything is driven by the seed, so a failure
// reproduces from the seed alone.
func genScenario(t *testing.T, seed uint64) diffScenario {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	sim := netsim.New(diffGraph(t), netsim.Config{Seed: seed + 1})
	fleet := collector.NewFleet()
	sim.SetSink(fleet)

	sessions := []netsim.Session{
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("2001:db8:feed::200"), AFI: bgp.AFIIPv6},
		{Collector: "rrc00", PeerAS: 200, PeerIP: netip.MustParseAddr("192.0.2.200"), AFI: bgp.AFIIPv4},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("2001:db8:feed::300"), AFI: bgp.AFIIPv6},
		{Collector: "rrc01", PeerAS: 300, PeerIP: netip.MustParseAddr("192.0.2.130"), AFI: bgp.AFIIPv4},
	}
	for _, s := range sessions {
		if err := sim.AddCollectorSession(s); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	prefixes := diffPrefixPool[:2+rng.IntN(len(diffPrefixPool)-1)]
	rounds := 6 + rng.IntN(6)
	period := 4 * time.Hour
	end := start.Add(time.Duration(rounds) * period)

	// Faults, each with its own dice roll. Wedges and withdrawal drops are
	// the paper's zombie mechanisms; StickRIB models the stuck-FIB case.
	faults := sim.Faults()
	if rng.Float64() < 0.5 {
		ws := start.Add(time.Duration(rng.IntN(rounds)) * period)
		faults.WedgeLink(1, 11, 0, ws, ws.Add(time.Duration(1+rng.IntN(3*rounds))*time.Hour), nil)
	}
	if rng.Float64() < 0.4 {
		faults.DropWithdrawals(2, 11, 0.3+0.7*rng.Float64(), nil)
	}
	if rng.Float64() < 0.3 {
		faults.DropCollectorWithdrawals(200, 0.5+0.5*rng.Float64(), nil)
	}
	if rng.Float64() < 0.3 {
		faults.StickRIB(10, nil)
	}
	if rng.Float64() < 0.2 {
		faults.GlobalWithdrawalDrop(0.2*rng.Float64(), nil)
	}

	var intervals []beacon.Interval
	for _, p := range prefixes {
		for r := 0; r < rounds; r++ {
			at := start.Add(time.Duration(r) * period)
			agg := &bgp.Aggregator{ASN: diffOrigin, Addr: beacon.AggregatorClock(at)}
			if err := sim.ScheduleAnnounce(at, diffOrigin, p, agg); err != nil {
				t.Fatal(err)
			}
			wd := at.Add(2 * time.Hour)
			if err := sim.ScheduleWithdraw(wd, diffOrigin, p); err != nil {
				t.Fatal(err)
			}
			intervals = append(intervals, beacon.Interval{
				Prefix: p, AnnounceAt: at, WithdrawAt: wd, End: at.Add(period),
			})
		}
	}

	// Session churn: AS-level resets resurrect stuck routes; collector
	// session resets exercise the STATE-record handling.
	for i, n := 0, rng.IntN(4); i < n; i++ {
		pairs := [][2]bgp.ASN{{10, 1}, {11, 1}, {11, 2}, {12, 2}}
		pr := pairs[rng.IntN(len(pairs))]
		at := start.Add(time.Duration(rng.IntN(rounds*4)) * time.Hour)
		if err := sim.ScheduleSessionReset(at, pr[0], pr[1]); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := 0, rng.IntN(3); i < n; i++ {
		sess := sessions[rng.IntN(len(sessions))]
		at := start.Add(time.Duration(rng.IntN(rounds*4)) * time.Hour)
		if err := sim.ScheduleCollectorSessionReset(at, sess); err != nil {
			t.Fatal(err)
		}
	}

	sim.EstablishCollectorSessions(start.Add(-time.Hour))
	for at := start.Add(8 * time.Hour); at.Before(end.Add(24 * time.Hour)); at = at.Add(8 * time.Hour) {
		sim.Run(at)
		fleet.SnapshotRIBs(at)
	}
	sim.RunAll()
	if err := fleet.Err(); err != nil {
		t.Fatal(err)
	}
	return diffScenario{
		updates:   fleet.UpdatesData(),
		dumps:     fleet.DumpData(),
		intervals: intervals,
	}
}

func diffPrefixes(intervals []beacon.Interval) []netip.Prefix {
	seen := make(map[netip.Prefix]bool)
	var out []netip.Prefix
	for _, iv := range intervals {
		if !seen[iv.Prefix] {
			seen[iv.Prefix] = true
			out = append(out, iv.Prefix)
		}
	}
	return out
}

// TestParallelMatchesSequential is the differential harness: randomized
// scenarios, every parallelism level, deep equality on every report.
func TestParallelMatchesSequential(t *testing.T) {
	const scenarios = 50
	thresholds := []time.Duration{30 * time.Minute, 90 * time.Minute, 3 * time.Hour}
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := NewTrackSet(diffPrefixes(sc.intervals))

			seqHist, err := BuildHistory(sc.updates, track)
			if err != nil {
				t.Fatal(err)
			}
			seqDet := &Detector{RecordPaths: true}
			seqRep := seqDet.DetectFromHistory(seqHist, sc.intervals)
			seqSweep := Sweep(seqHist, sc.intervals, thresholds, FilterOptions{})
			// Lifespans: every worker count against the reader-loop oracle.
			if _, err := assertLifespansMatchReference(t, sc.dumps, sc.intervals); err != nil {
				t.Fatal(err)
			}

			// Columnar store vs the original map store: the reference
			// build shares only recordEvents with the production path
			// (allocating decode, map-of-maps layout), so agreement here
			// pins the columnar layout, the interned decode, and the
			// borrowed-buffer reader all at once.
			refHist, err := buildHistoryReference(sc.updates, track)
			if err != nil {
				t.Fatal(err)
			}
			refDet := &Detector{RecordPaths: true}
			if rep := refHist.detect(refDet, sc.intervals); !reflect.DeepEqual(rep, seqRep) {
				t.Errorf("columnar store: Report diverges from reference store")
			}
			if sw := refHist.sweep(sc.intervals, thresholds, FilterOptions{}); !reflect.DeepEqual(sw, seqSweep) {
				t.Errorf("columnar store: Sweep diverges from reference store")
			}
			// The legacy baseline runs on the kernel; the oracle keeps the
			// per-(interval, peer) looking-glass loop.
			legacy := &LegacyDetector{Seed: seed}
			for _, avail := range []float64{lookingGlassAvailability, 0.6} {
				if got, want := legacy.detect(seqHist, sc.intervals, avail), refHist.detectLegacy(legacy, sc.intervals, avail); !reflect.DeepEqual(got, want) {
					t.Errorf("legacy at availability %v: kernel Report diverges from the reference store's loop", avail)
				}
			}

			for _, par := range diffParallelism {
				h, err := BuildHistoryParallel(sc.updates, track, par)
				if err != nil {
					t.Fatalf("parallelism %d: BuildHistoryParallel: %v", par, err)
				}
				if !reflect.DeepEqual(h, seqHist) {
					t.Errorf("parallelism %d: History diverges from sequential", par)
				}
				det := &Detector{RecordPaths: true, Parallelism: par}
				if rep := det.DetectFromHistory(h, sc.intervals); !reflect.DeepEqual(rep, seqRep) {
					t.Errorf("parallelism %d: Report diverges from sequential", par)
				}
				if t.Failed() {
					break
				}
			}
		})
	}
}

// TestColumnarKernelMatchesRowSweep is the kernel differential: the same
// history, evaluated by the row-sweep reference and by the batched
// columnar kernel, across detector modes and worker counts, must produce
// deep-equal reports. Randomized scenarios, 50 seeds.
func TestColumnarKernelMatchesRowSweep(t *testing.T) {
	const scenarios = 50
	for seed := uint64(1); seed <= scenarios; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := NewTrackSet(diffPrefixes(sc.intervals))
			h, err := BuildHistory(sc.updates, track)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []struct {
				name string
				det  Detector
			}{
				{"default", Detector{}},
				{"paths", Detector{RecordPaths: true}},
				{"nosessions", Detector{IgnoreSessionState: true, RecordPaths: true}},
				{"threshold30m", Detector{Threshold: 30 * time.Minute, RecordPaths: true}},
			} {
				rows := mode.det
				want := rows.detectFromHistoryRows(h, sc.intervals)
				for _, par := range []int{0, 1, 2, 8} {
					col := mode.det
					col.Parallelism = par
					if got := col.DetectFromHistory(h, sc.intervals); !reflect.DeepEqual(got, want) {
						t.Errorf("%s, parallelism %d: columnar kernel diverges from row sweep", mode.name, par)
					}
				}
				if t.Failed() {
					break
				}
			}
		})
	}
}

// TestKernelEmptyHistory: with no spans to cut into ranges the kernel
// still evaluates one (empty) range, so every interval gets its result and
// the report matches the row sweep at any worker count.
func TestKernelEmptyHistory(t *testing.T) {
	h, err := BuildHistory(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ivs := twoIntervals()
	rows := Detector{RecordPaths: true}
	want := rows.detectFromHistoryRows(h, ivs)
	for _, par := range []int{0, 1, 2, 8} {
		d := Detector{RecordPaths: true, Parallelism: par}
		if got := d.DetectFromHistory(h, ivs); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: empty-history report %+v, row sweep %+v", par, got, want)
		}
	}
}

// TestStreamsBuildMatchesConcatenated: building from segmented streams
// (the mmap ingest shape) must produce the identical History and Report
// as building from each collector's concatenated stream.
func TestStreamsBuildMatchesConcatenated(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := genScenario(t, seed)
			track := NewTrackSet(diffPrefixes(sc.intervals))
			want, err := BuildHistory(sc.updates, track)
			if err != nil {
				t.Fatal(err)
			}
			streams := make(map[string][][]byte, len(sc.updates))
			for name, data := range sc.updates {
				streams[name] = splitRecords(data, 3)
			}
			for _, par := range diffParallelism {
				h, err := BuildHistoryStreams(streams, track, par)
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(h, want) {
					t.Errorf("parallelism %d: streams History diverges from concatenated build", par)
				}
			}
			seq := &Detector{RecordPaths: true}
			wantRep, err := seq.Detect(sc.updates, sc.intervals)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range diffParallelism {
				d := &Detector{RecordPaths: true, Parallelism: par}
				got, err := d.DetectStreams(streams, sc.intervals)
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
	sc := genScenario(t, 99)
	track := NewTrackSet(diffPrefixes(sc.intervals))
	wantHist, err := BuildHistory(sc.updates, track)
	if err != nil {
		t.Fatal(err)
	}
	seq := &Detector{RecordPaths: true}
	wantRep := seq.DetectFromHistory(wantHist, sc.intervals)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, par := range diffParallelism {
			h, err := BuildHistoryParallel(sc.updates, track, par)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d workers=%d: %v", procs, par, err)
			}
			if !reflect.DeepEqual(h, wantHist) {
				t.Errorf("GOMAXPROCS=%d workers=%d: History diverges", procs, par)
			}
			det := &Detector{RecordPaths: true, Parallelism: par}
			if rep := det.DetectFromHistory(h, sc.intervals); !reflect.DeepEqual(rep, wantRep) {
				t.Errorf("GOMAXPROCS=%d workers=%d: Report diverges", procs, par)
			}
		}
	}
}

// TestDetectEndToEndParallel covers the Detector.Detect wiring (archive →
// history → report in one call) at every parallelism level.
func TestDetectEndToEndParallel(t *testing.T) {
	sc := genScenario(t, 1234)
	seq := &Detector{}
	want, err := seq.Detect(sc.updates, sc.intervals)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range diffParallelism {
		d := &Detector{Parallelism: par}
		got, err := d.Detect(sc.updates, sc.intervals)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: Detect report diverges from sequential", par)
		}
	}
}
