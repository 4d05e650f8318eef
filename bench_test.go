// Benchmarks: one per table and figure of the paper (each runs its
// experiment driver end to end — scenario simulation, MRT encoding,
// detection, rendering — on a fresh seed every iteration), plus
// micro-benchmarks of the wire codecs, the simulator, and the detector.
//
// The per-experiment benchmarks use Scale 16 (very short periods) so a
// full `go test -bench=.` stays in the minutes range; run the experiments
// command with -scale 1 for paper-length regeneration.
package zombiescope_test

import (
	"bytes"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zombiescope/internal/archive"
	"zombiescope/internal/beacon"
	"zombiescope/internal/bgp"
	"zombiescope/internal/collector"
	"zombiescope/internal/experiments"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/mrt"
	"zombiescope/internal/netsim"
	"zombiescope/internal/pipeline"
	"zombiescope/internal/topology"
	"zombiescope/internal/zombie"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// A distinct seed per experiment and per iteration defeats the
	// scenario cache, so every iteration pays the full pipeline cost.
	base := uint64(1000)
	for _, c := range id {
		base = base*31 + uint64(c)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(experiments.Config{Seed: base + uint64(i), Scale: 16})
		if err != nil {
			b.Fatal(err)
		}
		if res.Text == "" {
			b.Fatal("empty result")
		}
	}
}

// Table benchmarks.
func BenchmarkTable1DoubleCounting(b *testing.B)  { benchExperiment(b, "Table1") }
func BenchmarkTable2StudyComparison(b *testing.B) { benchExperiment(b, "Table2") }
func BenchmarkTable3MissedZombies(b *testing.B)   { benchExperiment(b, "Table3") }
func BenchmarkTable4NoisyPeer(b *testing.B)       { benchExperiment(b, "Table4") }
func BenchmarkTable5NoisyRouters(b *testing.B)    { benchExperiment(b, "Table5") }

// Figure benchmarks.
func BenchmarkFig2ThresholdSweep(b *testing.B)       { benchExperiment(b, "Fig2") }
func BenchmarkFig3LifespanCDF(b *testing.B)          { benchExperiment(b, "Fig3") }
func BenchmarkFig4ResurrectionTimeline(b *testing.B) { benchExperiment(b, "Fig4") }
func BenchmarkFig5EmergenceRate(b *testing.B)        { benchExperiment(b, "Fig5") }
func BenchmarkFig6PathLengths(b *testing.B)          { benchExperiment(b, "Fig6") }
func BenchmarkFig7Concurrency(b *testing.B)          { benchExperiment(b, "Fig7") }

// Case-study benchmarks.
func BenchmarkCaseImpactful(b *testing.B)    { benchExperiment(b, "CaseImpactful") }
func BenchmarkCaseLongLived(b *testing.B)    { benchExperiment(b, "CaseLongLived") }
func BenchmarkCaseResurrection(b *testing.B) { benchExperiment(b, "CaseResurrectionSubpath") }

// Extension benchmarks (ablations and the §6 discussion experiment).
func BenchmarkAblationMethodology(b *testing.B) { benchExperiment(b, "AblationMethodology") }
func BenchmarkAblationTimers(b *testing.B)      { benchExperiment(b, "AblationTimers") }
func BenchmarkDiscussionCombined(b *testing.B)  { benchExperiment(b, "DiscussionCombined") }
func BenchmarkDiscussionIPv4(b *testing.B)      { benchExperiment(b, "DiscussionIPv4Beacons") }
func BenchmarkDiscussionRouteViews(b *testing.B) {
	benchExperiment(b, "DiscussionRouteViews")
}

// BenchmarkStreamDetector measures the real-time detection path over a
// pre-sorted record stream.
func BenchmarkStreamDetector(b *testing.B) {
	d, err := experiments.RunAuthorScenario(benchAuthorConfig())
	if err != nil {
		b.Fatal(err)
	}
	type tsRec struct {
		name string
		rec  mrt.Record
	}
	var stream []tsRec
	for name, raw := range d.Updates {
		rd := mrt.NewReader(bytes.NewReader(raw))
		for {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			stream = append(stream, tsRec{name, rec})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool {
		return stream[i].rec.RecordTime().Before(stream[j].rec.RecordTime())
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events := 0
		sd := zombie.NewStreamDetector(d.Intervals, 90*time.Minute, func(zombie.ZombieEvent) { events++ })
		for _, r := range stream {
			sd.Advance(r.rec.RecordTime())
			sd.Observe(r.name, r.rec)
		}
		sd.Advance(d.Config.TrackUntil)
		if events == 0 {
			b.Fatal("no events")
		}
	}
}

// --- micro-benchmarks ---

func benchUpdate() *bgp.Update {
	return &bgp.Update{
		Attrs: bgp.PathAttributes{
			HasOrigin: true,
			Origin:    bgp.OriginIGP,
			ASPath:    bgp.NewASPath(61573, 28598, 10429, 12956, 3356, 34549, 8298, 210312),
			Aggregator: &bgp.Aggregator{
				ASN:  210312,
				Addr: beacon.AggregatorClock(time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)),
			},
			MPReach: &bgp.MPReachNLRI{
				AFI:     bgp.AFIIPv6,
				SAFI:    bgp.SAFIUnicast,
				NextHop: netip.MustParseAddr("2001:db8::1"),
				NLRI:    []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
			},
		},
	}
}

func BenchmarkBGPUpdateEncode(b *testing.B) {
	u := benchUpdate()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = u.AppendWireFormat(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBGPUpdateDecode(b *testing.B) {
	u := benchUpdate()
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bgp.DecodeUpdate(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMRTWriteRead(b *testing.B) {
	u := benchUpdate()
	wire, err := u.AppendWireFormat(nil)
	if err != nil {
		b.Fatal(err)
	}
	rec := &mrt.BGP4MPMessage{
		Timestamp: time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC),
		PeerAS:    61573,
		LocalAS:   12654,
		AFI:       bgp.AFIIPv6,
		PeerIP:    netip.MustParseAddr("2001:db8:feed::1"),
		LocalIP:   netip.MustParseAddr("2001:67c::1"),
		Data:      wire,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := mrt.NewWriter(&buf).Write(rec); err != nil {
			b.Fatal(err)
		}
		if _, err := mrt.ReadAll(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimBeaconCycle measures one full announce+withdraw propagation
// over a ~400-AS Internet-like topology.
func BenchmarkSimBeaconCycle(b *testing.B) {
	g, err := topology.Generate(topology.DefaultGenerateConfig(5))
	if err != nil {
		b.Fatal(err)
	}
	origin := g.TierASNs(4)[0]
	prefix := netip.MustParsePrefix("2a0d:3dc1:1200::/48")
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(g, netsim.Config{Seed: uint64(i + 1)})
		sim.ScheduleAnnounce(t0, origin, prefix, nil)
		sim.ScheduleWithdraw(t0.Add(15*time.Minute), origin, prefix)
		sim.RunAll()
		if sim.RouteCount(prefix) != 0 {
			b.Fatal("did not converge")
		}
	}
}

// BenchmarkDetector measures the revised detection over a prebuilt
// archive of one simulated day of author beacons.
func BenchmarkDetector(b *testing.B) {
	d, err := experiments.RunAuthorScenario(benchAuthorConfig())
	if err != nil {
		b.Fatal(err)
	}
	det := &zombie.Detector{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := det.Detect(d.Updates, d.Intervals)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep.Filter(zombie.FilterOptions{})
	}
}

// BenchmarkHistoryReconstruction isolates the MRT parsing + state
// reconstruction stage.
func BenchmarkHistoryReconstruction(b *testing.B) {
	d, err := experiments.RunAuthorScenario(benchAuthorConfig())
	if err != nil {
		b.Fatal(err)
	}
	track := make(zombie.TrackSet)
	for _, iv := range d.Intervals {
		track[iv.Prefix] = true
	}
	var total int
	for _, data := range d.Updates {
		total += len(data)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zombie.BuildHistory(d.Updates, track); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLifespanTracking isolates the RIB-dump lifespan stage over the
// year-long dump archive, at one worker. It runs the author scenario at
// stride 2, the scale of bench/'s hunt-author, rather than
// benchAuthorConfig's 16: the denser beacon schedule puts many RIB entries
// behind every peer-index table, so BENCH_lifespan.json's allocation
// fence measures the per-entry decode and fold cost, not the tables'.
func BenchmarkLifespanTracking(b *testing.B) {
	d, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(77, 2))
	if err != nil {
		b.Fatal(err)
	}
	var total int
	for _, data := range d.Dumps {
		total += len(data)
	}
	b.SetBytes(int64(total))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := zombie.TrackLifespans(d.Dumps, d.Intervals, zombie.LifespanConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAuthorConfig() experiments.AuthorConfig {
	cfg := experiments.DefaultAuthorConfig(77, 16)
	return cfg
}

// pipelineWorkerCounts are the parallelism levels BenchmarkPipelineDetect
// sweeps: one worker (the engine Parallelism 0 also runs), the fixed points
// 2 and 4 that BENCH_detect.json fences, and every core.
func pipelineWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// BenchmarkArchiveIngest measures the disk-to-records ingest path end to
// end — open an on-disk archive directory, decode every MRT record in
// borrow mode, release — comparing the mmap zero-copy path
// (archive.OpenMapped: each rotated file stays its own mapped segment,
// record bodies alias the mapping) against the heap path (archive.Load:
// the same mapped set, materialized — every collector's files copied into
// one heap buffer; the mode keeps its recorded name, readfull). Both modes
// decode through the same chunked fold with a fixed worker count, so
// chunking — and therefore allocs/op and B/op — is machine-independent and
// BENCH_ingest.json fences both on every machine. B/op is the structural
// proof of "no per-record body copies": readfull pays at least the archive
// size in heap per iteration, mmap allocates only per-chunk scaffolding.
func BenchmarkArchiveIngest(b *testing.B) {
	d, err := experiments.RunAuthorScenario(benchAuthorConfig())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := archive.Write(dir, &archive.Set{Updates: d.Updates, Dumps: d.Dumps}); err != nil {
		b.Fatal(err)
	}
	var total int
	for _, data := range d.Updates {
		total += len(data)
	}

	fold := func(streams map[string][][]byte) int {
		e := &pipeline.Engine{Workers: 4, Borrow: true, Metrics: &pipeline.Metrics{}}
		_, accs, err := pipeline.FoldStreams(e, streams,
			func(pipeline.FileChunk) *int { return new(int) },
			func(acc *int, _ pipeline.FileChunk, _ int, _ mrt.Record) error { *acc++; return nil },
		)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, file := range accs {
			for _, acc := range file {
				n += *acc
			}
		}
		return n
	}

	b.Run("mode=readfull", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set, err := archive.Load(dir)
			if err != nil {
				b.Fatal(err)
			}
			streams := make(map[string][][]byte, len(set.Updates))
			for name, data := range set.Updates {
				streams[name] = [][]byte{data}
			}
			if fold(streams) == 0 {
				b.Fatal("no records")
			}
		}
	})
	b.Run("mode=mmap", func(b *testing.B) {
		b.SetBytes(int64(total))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ms, err := archive.OpenMapped(dir)
			if err != nil {
				b.Fatal(err)
			}
			if fold(ms.Updates) == 0 {
				b.Fatal("no records")
			}
			ms.Close()
		}
	})
}

// BenchmarkPipelineDetect measures the full detection path — archive decode,
// per-chunk history build, seal, interval evaluation — per worker count.
func BenchmarkPipelineDetect(b *testing.B) {
	d, err := experiments.RunAuthorScenario(benchAuthorConfig())
	if err != nil {
		b.Fatal(err)
	}
	var total int
	for _, data := range d.Updates {
		total += len(data)
	}
	for _, workers := range pipelineWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			det := &zombie.Detector{Parallelism: workers}
			b.SetBytes(int64(total))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := det.Detect(d.Updates, d.Intervals)
				if err != nil {
					b.Fatal(err)
				}
				_ = rep.Filter(zombie.FilterOptions{})
			}
		})
	}
}

// benchFanoutEvent is the typical UPDATE payload the fan-out benchmarks
// publish; raw bytes are omitted so they isolate fan-out, not MRT
// encoding.
func benchFanoutEvent() livefeed.Event {
	return livefeed.Event{
		Channel:   livefeed.ChannelUpdates,
		Type:      livefeed.TypeUpdate,
		Collector: "rrc00",
		Timestamp: time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC),
		PeerAS:    61573,
		Peer:      netip.MustParseAddr("2001:db8:feed::1"),
		Path:      []bgp.ASN{61573, 3356, 8298, 210312},
		Announcements: []livefeed.Announcement{{
			NextHop:  netip.MustParseAddr("2001:db8::1"),
			Prefixes: []netip.Prefix{netip.MustParsePrefix("2a0d:3dc1:1851::/48")},
		}},
	}
}

// benchFanoutSubs are the subscriber populations the fan-out benchmarks
// sweep — up to RIS-Live order of magnitude.
var benchFanoutSubs = []int{1, 100, 10000, 100000}

// runFanoutBench publishes b.N events into a broker with subs attached
// blocking subscribers whose rings are drained by a small pool of
// polling goroutines (subscribers are multiplexed, not one goroutine
// each, so 100k subscribers measure fan-out rather than scheduler
// load). The block policy makes delivery lossless, so every published
// event reaches every subscriber and the measurement is end-to-end
// delivery cost rather than load shedding. deliver is called for every
// dequeued frame — the per-delivery cost under measurement. Reported
// metrics: ns/op and allocs/op are per published event; deliv/op is the
// fan-out (== subs, asserted); deliv/s is delivery throughput including
// drain time.
func runFanoutBench(b *testing.B, subs int, deliver func(livefeed.Frame)) {
	const ring = 64
	broker := livefeed.NewBroker(livefeed.Config{RingSize: ring, ReplaySize: -1})
	list := make([]*livefeed.Subscriber, subs)
	for i := range list {
		sub, _, err := broker.Subscribe(livefeed.Filter{}, livefeed.PolicyBlock, 0)
		if err != nil {
			b.Fatal(err)
		}
		list[i] = sub
	}
	drainers := runtime.GOMAXPROCS(0)
	if drainers < 2 {
		drainers = 2
	}
	if drainers > subs {
		drainers = subs
	}
	var stop atomic.Bool
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for d := 0; d < drainers; d++ {
		part := list[d*subs/drainers : (d+1)*subs/drainers]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// One shared-counter add per sweep over the partition, so
				// the publisher sees the drain finish without the drainers
				// contending on it per frame.
				swept := int64(0)
				for _, sub := range part {
					for {
						fr, ok := sub.TryNextFrame()
						if !ok {
							break
						}
						deliver(fr)
						fr.Release()
						swept++
					}
				}
				if swept > 0 {
					delivered.Add(swept)
				} else if stop.Load() {
					return
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	drained := func(want int64) {
		for deadline := time.Now().Add(time.Minute); delivered.Load() < want && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	ev := benchFanoutEvent()
	// Warm the frame pool with one ring of events first, as a running
	// broker's is: otherwise the first publishes of every run grow fresh
	// frames, which a short -benchtime bills as allocs/op.
	for i := 0; i < ring; i++ {
		broker.Publish(ev)
	}
	warm := int64(subs) * ring
	drained(warm)
	want := warm + int64(subs)*int64(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		broker.Publish(ev)
	}
	// The timed region ends when the last frame has been delivered: the
	// drain is part of the fan-out cost, the broker's teardown is not.
	drained(want)
	b.StopTimer()
	broker.Close()
	stop.Store(true)
	wg.Wait()
	n := delivered.Load() - warm
	if n != want-warm {
		b.Fatalf("delivered %d frames, want %d (block policy is lossless)", n, want-warm)
	}
	b.ReportMetric(float64(n)/float64(b.N), "deliv/op")
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "deliv/s")
}

// BenchmarkLivefeedFanout measures the encode-once broadcast path: one
// publisher, 1 to 100k subscribers sharing each event's single encoded
// frame. Delivery is the zero-copy dequeue the server's writev loop
// performs; allocs/op stays flat as subscribers grow because the encode
// happens once per publish, not once per subscriber.
func BenchmarkLivefeedFanout(b *testing.B) {
	for _, subs := range benchFanoutSubs {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			runFanoutBench(b, subs, func(fr livefeed.Frame) {
				// Touch the shared wire bytes the server's writev loop
				// would hand to the kernel; the frame release below is
				// the rest of the per-delivery cost.
				_ = fr.Wire()
			})
		})
	}
}

// BenchmarkLivefeedFanoutOracle is the pre-rework delivery cost kept for
// comparison: every dequeued event is re-encoded per subscriber
// (json.Marshal inside WriteFrame), exactly what the old server write loop
// did. BENCH_fanout.json fences both: this benchmark's allocs/op grow with
// the subscriber count, BenchmarkLivefeedFanout's stay flat.
func BenchmarkLivefeedFanoutOracle(b *testing.B) {
	for _, subs := range benchFanoutSubs {
		if subs > 10000 {
			continue // the old path at 100k subscribers is pointlessly slow
		}
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			runFanoutBench(b, subs, func(fr livefeed.Frame) {
				ev := fr.Event()
				if err := livefeed.WriteFrame(io.Discard, livefeed.FrameEvent, &ev); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkPalmTree measures root-cause inference over a large outbreak.
func BenchmarkPalmTree(b *testing.B) {
	var paths []bgp.ASPath
	for i := 0; i < 500; i++ {
		paths = append(paths, bgp.NewASPath(
			bgp.ASN(65000+i), bgp.ASN(64000+i%7), 33891, 25091, 8298, 210312))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := zombie.InferRootCause(paths); !ok {
			b.Fatal("no root cause")
		}
	}
}

// BenchmarkCollectorSnapshot measures a TABLE_DUMP_V2 snapshot of a fleet
// with many sessions and prefixes.
func BenchmarkCollectorSnapshot(b *testing.B) {
	f := collector.NewFleet()
	t0 := time.Date(2024, 6, 10, 12, 0, 0, 0, time.UTC)
	for s := 0; s < 50; s++ {
		sess := netsim.Session{
			Collector: fmt.Sprintf("rrc%02d", s%4),
			PeerAS:    bgp.ASN(65000 + s),
			PeerIP:    netip.MustParseAddr(fmt.Sprintf("2001:db8::%x", s+1)),
			AFI:       bgp.AFIIPv6,
		}
		for p := 0; p < 40; p++ {
			prefix := netip.MustParsePrefix(fmt.Sprintf("2a0d:3dc1:%x::/48", 0x100+p))
			f.PeerAnnounce(t0, sess, prefix, netsim.RouteAttrs{
				Path: bgp.NewASPath(sess.PeerAS, 25091, 8298, 210312),
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SnapshotRIBs(t0.Add(time.Duration(i+1) * 8 * time.Hour))
	}
}
