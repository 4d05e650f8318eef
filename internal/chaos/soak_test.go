// End-to-end soak: the full zombied wire path — replay -> broker ->
// server -> reconnecting client -> StreamDetector — run under N seeded
// fault schedules, checking the invariants the daemon promises:
//
//   - sequence numbers arrive contiguous, no gaps or duplicates, across
//     every chaos-forced resume-from-sequence reconnect;
//   - the client-side StreamDetector emits exactly the batch Detector's
//     zombie routes, and so does the server-side alert channel;
//   - the broker's obs counters reconcile with what was delivered;
//   - backpressure policies honor their contracts under fault load.
//
// A failing seed prints itself and the command that replays it alone:
//
//	go test -race -run 'TestChaosSoak' -chaos.seed=N ./internal/chaos
package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/beacon"
	"zombiescope/internal/chaos"
	"zombiescope/internal/experiments"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/mrt"
	"zombiescope/internal/mrt/mrttest"
	"zombiescope/internal/zombie"
)

var (
	soakSeeds = flag.Int("chaos.seeds", 20,
		"how many seeds the chaos soak matrix runs (seeds 1..N)")
	soakSeed = flag.Uint64("chaos.seed", 0,
		"replay the chaos soak under this one seed instead of the matrix")
)

// soakPlan is the fault plan of seed s. Timing constants are ordered so
// only real faults force reconnects: server heartbeat (30ms) < client
// idle timeout (100ms) < stall timeout (150ms) < handshake timeout
// (400ms). The MaxConns budget guarantees the client eventually gets a
// clean connection and the soak terminates.
func soakPlan(s uint64) chaos.Plan {
	return chaos.Plan{
		Seed:         s,
		MeanGap:      2048,
		Horizon:      12,
		MaxLatency:   time.Millisecond,
		StallTimeout: 150 * time.Millisecond,
		MaxConns:     32,
	}
}

func soakSeedList() []uint64 {
	if *soakSeed != 0 {
		return []uint64{*soakSeed}
	}
	seeds := make([]uint64, *soakSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// replayHint tells a human (or CI log reader) how to reproduce one seed.
func replayHint(seed uint64) string {
	return fmt.Sprintf("replay: go test -race -run 'TestChaosSoak' -chaos.seed=%d ./internal/chaos", seed)
}

// routeKey identifies one detected zombie route for set comparison.
type routeKey struct {
	peer      zombie.PeerID
	prefix    string
	interval  int64
	duplicate bool
}

// soakScenario is the shared workload: one author-mode scenario plus its
// batch-detection reference, generated once for the whole matrix (the
// chaos seed varies the faults, not the data).
type soakScenario struct {
	stream      []livefeed.SourcedRecord
	intervals   []beacon.Interval
	trackUntil  time.Time
	batchRoutes map[routeKey]bool
	updates     map[string][]byte
}

var (
	scenarioOnce sync.Once
	scenarioVal  *soakScenario
	scenarioErr  error
)

func scenario(t *testing.T) *soakScenario {
	t.Helper()
	scenarioOnce.Do(func() {
		data, err := experiments.RunAuthorScenario(experiments.DefaultAuthorConfig(42, 32))
		if err != nil {
			scenarioErr = err
			return
		}
		stream, err := livefeed.MergeUpdates(data.Updates)
		if err != nil {
			scenarioErr = err
			return
		}
		batch, err := (&zombie.Detector{}).Detect(data.Updates, data.Intervals)
		if err != nil {
			scenarioErr = err
			return
		}
		routes := make(map[routeKey]bool)
		for _, ob := range batch.Outbreaks {
			for _, r := range ob.Routes {
				routes[routeKey{r.Peer, r.Prefix.String(), r.Interval.AnnounceAt.Unix(), r.Duplicate}] = true
			}
		}
		scenarioVal = &soakScenario{
			stream:      stream,
			intervals:   data.Intervals,
			trackUntil:  data.Config.TrackUntil,
			batchRoutes: routes,
			updates:     data.Updates,
		}
	})
	if scenarioErr != nil {
		t.Fatal(scenarioErr)
	}
	if len(scenarioVal.batchRoutes) == 0 {
		t.Fatal("batch detector found no zombies; soak scenario too small to be meaningful")
	}
	return scenarioVal
}

// faultTotals accumulates Injector.Fired() across the matrix for the
// coverage assertion.
var (
	faultMu     sync.Mutex
	faultTotals = map[chaos.Fault]uint64{}
	soakSeedRun int
)

func recordFired(fired map[chaos.Fault]uint64) {
	faultMu.Lock()
	defer faultMu.Unlock()
	soakSeedRun++
	for f, n := range fired {
		faultTotals[f] += n
	}
}

// TestChaosSoakParity runs the full wire path under each seed of the
// matrix and checks every invariant. Seeds run in parallel; each owns
// its broker, server, listener, injector and client.
func TestChaosSoakParity(t *testing.T) {
	sc := scenario(t)
	for _, seed := range soakSeedList() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSoakSeed(t, sc, seed)
		})
	}
}

func runSoakSeed(t *testing.T, sc *soakScenario, seed uint64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\n%s", seed, fmt.Sprintf(format, args...), replayHint(seed))
	}

	// Server side: broker + pipeline, served through a chaos listener.
	// Ring and replay windows cover the whole scenario so resume never
	// loses events and drop-oldest never has to fire.
	broker := livefeed.NewBroker(livefeed.Config{RingSize: 1 << 14, ReplaySize: 1 << 14})
	defer broker.Close()
	pipe := livefeed.NewPipeline(broker, sc.intervals, 0)
	srv := &livefeed.Server{
		Broker:            broker,
		Name:              "chaos-soak",
		HeartbeatInterval: 30 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(soakPlan(seed))
	go srv.Serve(inj.Listener(l))
	defer srv.Close()

	// Client side: reconnecting consumer feeding an independent
	// StreamDetector plus the raw delivery log the invariants inspect.
	var mu sync.Mutex
	var seqs []uint64
	streamRoutes := make(map[routeKey]bool)
	serverAlerts := make(map[routeKey]bool)
	sd := zombie.NewStreamDetector(sc.intervals, 0, func(ev zombie.ZombieEvent) {
		streamRoutes[routeKey{ev.Peer, ev.Prefix.String(), ev.Interval.AnnounceAt.Unix(), ev.Duplicate}] = true
	})
	var onEventErr error
	client := &livefeed.Client{
		Addr:             l.Addr().String(),
		MinBackoff:       time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		HandshakeTimeout: 400 * time.Millisecond,
		IdleTimeout:      100 * time.Millisecond,
		FromStart:        true,
		OnEvent: func(ev livefeed.Event) {
			mu.Lock()
			defer mu.Unlock()
			seqs = append(seqs, ev.Seq)
			if onEventErr != nil {
				return
			}
			switch ev.Channel {
			case livefeed.ChannelUpdates:
				rec, err := new(mrt.Decoder).DecodeFramed(ev.Raw)
				if err != nil {
					onEventErr = fmt.Errorf("seq %d: decode raw record: %w", ev.Seq, err)
					return
				}
				sd.Advance(rec.RecordTime())
				sd.Observe(ev.Collector, rec)
			case livefeed.ChannelZombie:
				peer := zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer}
				serverAlerts[routeKey{peer, ev.Alert.Prefix.String(), ev.Alert.IntervalStart.Unix(), ev.Alert.Duplicate}] = true
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clientDone := make(chan error, 1)
	go func() { clientDone <- client.Run(ctx) }()

	// Drive the whole archive through the pipeline. Publishing is
	// in-process and safe regardless of client connectivity: the replay
	// window holds everything.
	for _, sr := range sc.stream {
		pipe.Ingest(sr)
	}
	pipe.Flush(sc.trackUntil)
	if n := pipe.PendingChecks(); n != 0 {
		fail("server-side detector left %d checks pending", n)
	}
	head := broker.Seq()
	if head == 0 {
		fail("nothing published")
	}

	// Wait for the client to survive the chaos and drain to head.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		mu.Lock()
		n := len(seqs)
		caughtUp := n > 0 && seqs[n-1] == head
		evErr := onEventErr
		mu.Unlock()
		if evErr != nil {
			fail("%v", evErr)
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			fail("client never drained to head %d (delivered %d events across %d connections)",
				head, n, inj.Conns())
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-clientDone; !errors.Is(err, context.Canceled) {
		fail("client Run returned %v, want context.Canceled", err)
	}

	mu.Lock()
	defer mu.Unlock()

	// Invariant 1: contiguous delivery. Every sequence 1..head exactly
	// once, in order, across however many reconnects the faults forced.
	if uint64(len(seqs)) != head {
		fail("delivered %d events, head is %d (gap or duplicate)", len(seqs), head)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			fail("delivery %d has seq %d, want %d", i, s, i+1)
		}
	}

	// Invariant 2: detection parity. The chaos-battered stream must
	// yield exactly the batch detector's routes — client-side and on the
	// server's alert channel.
	sd.Advance(sc.trackUntil)
	if n := sd.PendingChecks(); n != 0 {
		fail("client-side detector left %d checks pending", n)
	}
	if err := equalRouteSets(sc.batchRoutes, streamRoutes); err != nil {
		fail("client-side streaming vs batch detector: %v", err)
	}
	if err := equalRouteSets(sc.batchRoutes, serverAlerts); err != nil {
		fail("server-side alerts vs batch detector: %v", err)
	}

	// Invariant 3: the obs counters reconcile with what happened. The
	// rings were sized to make every loss class zero; delivery implies
	// at least head events were queued to subscribers.
	m, _ := broker.Metrics().Registry().Values()
	if got := uint64(m["livefeed_records_in_total"]); got != head {
		fail("livefeed_records_in_total = %d, broker head = %d", got, head)
	}
	if m["livefeed_events_out_total"] < int64(head) {
		fail("livefeed_events_out_total = %d < %d delivered", m["livefeed_events_out_total"], head)
	}
	for _, k := range []string{"livefeed_kicks_total", "livefeed_drops_drop_oldest_total", "livefeed_block_stalls_total"} {
		if m[k] != 0 {
			fail("%s = %d, want 0 (policy contract violated under chaos)", k, m[k])
		}
	}
	if m["livefeed_subscribers_total"] < 1 {
		fail("livefeed_subscribers_total = %d, want >= 1", m["livefeed_subscribers_total"])
	}

	recordFired(inj.Fired())
	t.Logf("seed %d: head=%d conns=%d fired=%v", seed, head, inj.Conns(), inj.Fired())
}

// TestChaosSoakFaultCoverage asserts the matrix exercised every fault
// kind at least once — a soak that never corrupts or stalls is not
// testing what it claims. Declared after TestChaosSoakParity so the
// totals are populated (top-level tests run in declaration order).
func TestChaosSoakFaultCoverage(t *testing.T) {
	faultMu.Lock()
	defer faultMu.Unlock()
	if soakSeedRun == 0 {
		t.Skip("soak did not run (test filtered out)")
	}
	if *soakSeed != 0 && soakSeedRun < 3 {
		t.Skip("single-seed replay: coverage is a matrix property")
	}
	var missing []string
	for _, f := range chaos.Faults() {
		if faultTotals[f] == 0 {
			missing = append(missing, f.String())
		}
	}
	if len(missing) > 0 {
		t.Fatalf("fault kinds never fired across %d seeds: %v (totals %v)",
			soakSeedRun, missing, faultTotals)
	}
	t.Logf("fault totals across %d seeds: %v", soakSeedRun, faultTotals)
}

// TestChaosSoakBackpressure checks the three policy contracts under
// fault load: kick-slowest disconnects (only) the laggard, drop-oldest
// sheds but never reorders, and block never loses an event.
func TestChaosSoakBackpressure(t *testing.T) {
	t.Run("kick-slowest", func(t *testing.T) {
		t.Parallel()
		// Tiny ring, a client that never reads: the server must kick it,
		// surface ErrKicked on the wire, and count exactly what it did.
		broker := livefeed.NewBroker(livefeed.Config{RingSize: 4, ReplaySize: -1})
		defer broker.Close()
		srv := &livefeed.Server{Broker: broker, Name: "bp-kick", WriteTimeout: 2 * time.Second}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		inj := chaos.New(chaos.Plan{Seed: 1001, MeanGap: 4096, Horizon: 4,
			StallTimeout: 100 * time.Millisecond,
			Disable:      []chaos.Fault{chaos.FaultReset, chaos.FaultCorrupt, chaos.FaultStall}})
		go srv.Serve(inj.Listener(l))
		defer srv.Close()

		conn, err := livefeed.DialWith(l.Addr().String(), livefeed.Filter{}, livefeed.PolicyKickSlowest, 0, livefeed.DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 100000; i++ {
			broker.Publish(livefeed.Event{Channel: livefeed.ChannelUpdates, Type: livefeed.TypeUpdate, Collector: "rrc00"})
		}
		deadline := time.Now().Add(time.Minute)
		for broker.SubscriberCount() > 0 {
			if time.Now().After(deadline) {
				t.Fatal("slow subscriber never kicked")
			}
			time.Sleep(time.Millisecond)
		}
		for {
			if _, err := conn.Next(); err != nil {
				if !errors.Is(err, livefeed.ErrKicked) {
					t.Fatalf("stream error = %v, want ErrKicked", err)
				}
				break
			}
		}
		if m, _ := broker.Metrics().Registry().Values(); m["livefeed_kicks_total"] != 1 {
			t.Fatalf("livefeed_kicks_total = %d, want 1", m["livefeed_kicks_total"])
		}
	})

	t.Run("drop-oldest", func(t *testing.T) {
		t.Parallel()
		// Tiny ring, a slow reader: events are shed, but what does arrive
		// is strictly increasing (no duplicates, no reordering) and the
		// drop counter accounts for every missing event.
		broker := livefeed.NewBroker(livefeed.Config{RingSize: 8, ReplaySize: -1})
		defer broker.Close()
		srv := &livefeed.Server{Broker: broker, Name: "bp-drop", WriteTimeout: 2 * time.Second}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		defer srv.Close()

		conn, err := livefeed.DialWith(l.Addr().String(), livefeed.Filter{}, livefeed.PolicyDropOldest, 0, livefeed.DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		const total = 5000
		for i := 0; i < total; i++ {
			broker.Publish(livefeed.Event{Channel: livefeed.ChannelUpdates, Type: livefeed.TypeUpdate, Collector: "rrc00"})
			if i%100 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		broker.Close() // drains: subscriber sees remaining buffer then ErrBrokerClosed

		var got []uint64
		for {
			ev, err := conn.Next()
			if err != nil {
				break // connection torn down after the broker closed
			}
			got = append(got, ev.Seq)
			if ev.Seq == total {
				break
			}
		}
		if len(got) == 0 {
			t.Fatal("slow reader received nothing at all")
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatal("drop-oldest reordered events")
		}
		for i := 1; i < len(got); i++ {
			if got[i] == got[i-1] {
				t.Fatalf("duplicate seq %d under drop-oldest", got[i])
			}
		}
	})

	t.Run("block", func(t *testing.T) {
		t.Parallel()
		// In-process block subscriber with a slow consumer: Publish must
		// wait rather than lose, so the consumer sees every event.
		broker := livefeed.NewBroker(livefeed.Config{RingSize: 4, ReplaySize: -1})
		defer broker.Close()
		sub, _, err := broker.Subscribe(livefeed.Filter{}, livefeed.PolicyBlock, 0)
		if err != nil {
			t.Fatal(err)
		}
		const total = 500
		done := make(chan []uint64, 1)
		go func() {
			var got []uint64
			for len(got) < total {
				ev, err := sub.Next()
				if err != nil {
					break
				}
				got = append(got, ev.Seq)
				time.Sleep(50 * time.Microsecond) // slower than the publisher
			}
			done <- got
		}()
		for i := 0; i < total; i++ {
			broker.Publish(livefeed.Event{Channel: livefeed.ChannelUpdates, Type: livefeed.TypeUpdate, Collector: "rrc00"})
		}
		got := <-done
		if len(got) != total {
			t.Fatalf("block subscriber saw %d/%d events", len(got), total)
		}
		for i, s := range got {
			if s != uint64(i+1) {
				t.Fatalf("block delivery %d has seq %d, want %d", i, s, i+1)
			}
		}
		if m, _ := broker.Metrics().Registry().Values(); m["livefeed_block_stalls_total"] == 0 {
			t.Fatal("publisher never blocked: the test did not exercise the policy")
		}
	})
}

// TestChaosReaderMRTReplay: the io.Reader face of the harness is
// transparent to the MRT decoder under benign faults (latency, short
// reads, stalls) — the decode yields byte-identical records, just
// slower. Corruption and resets are excluded: MRT has no checksum, so
// those are exactly the cases the decoder cannot promise to catch.
func TestChaosReaderMRTReplay(t *testing.T) {
	sc := scenario(t)
	var name string
	for n := range sc.updates {
		if name == "" || n < name {
			name = n
		}
	}
	raw := sc.updates[name]
	clean, err := mrttest.ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 {
		t.Fatal("empty archive")
	}

	in := chaos.New(chaos.Plan{
		Seed: 77, MeanGap: 512, Horizon: 64,
		MaxLatency:   200 * time.Microsecond,
		StallTimeout: 20 * time.Millisecond,
		Disable:      []chaos.Fault{chaos.FaultCorrupt, chaos.FaultReset},
	})
	chaotic, err := mrttest.ReadAll(in.Reader(bytes.NewReader(raw)))
	if err != nil {
		t.Fatalf("decode through benign chaos: %v", err)
	}
	if len(chaotic) != len(clean) {
		t.Fatalf("decoded %d records through chaos, %d clean", len(chaotic), len(clean))
	}
	var cleanBuf, chaosBuf bytes.Buffer
	if err := mrttest.WriteAll(&cleanBuf, clean); err != nil {
		t.Fatal(err)
	}
	if err := mrttest.WriteAll(&chaosBuf, chaotic); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanBuf.Bytes(), chaosBuf.Bytes()) {
		t.Fatal("records decoded through benign chaos re-encode differently")
	}
	if len(in.Fired()) == 0 {
		t.Fatal("no fault fired across the archive; raise Horizon or shrink MeanGap")
	}
}

func equalRouteSets(want, got map[routeKey]bool) error {
	for k := range want {
		if !got[k] {
			return fmt.Errorf("missing route %+v (want %d routes, got %d)", k, len(want), len(got))
		}
	}
	for k := range got {
		if !want[k] {
			return fmt.Errorf("unexpected route %+v (want %d routes, got %d)", k, len(want), len(got))
		}
	}
	return nil
}
