// Fan-out soak: the encode-once broadcast path under scale and faults.
// One broker publishes a seeded stream to a large population of
// in-process subscribers (mixed policies, mixed filters, deliberately
// slow and deliberately doomed readers) plus reconnecting wire clients
// behind the chaos injector, whose resets kill connections mid-writev
// while the server still holds frame references in its batch.
//
// The shared-buffer invariants, on every delivery:
//
//   - a dequeued frame's bytes always parse as one well-formed,
//     CRC-valid FrameEvent whose decoded sequence matches the frame's —
//     a recycled or torn buffer cannot survive the checksum;
//   - frames held across heavy publish churn keep their exact bytes
//     until released (reuse-while-referenced torture);
//   - per-subscriber sequences stay strictly increasing; FromStart wire
//     clients recover the full contiguous stream across chaos-forced
//     reconnects;
//   - no refcount panic (double release / negative count) anywhere,
//     race-clean under -race.
//
// A failing seed prints the command that replays it alone:
//
//	go test -race -run 'TestChaosFanoutSoak' -fanout.seed=N ./internal/chaos
package chaos_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"zombiescope/internal/bgp"
	"zombiescope/internal/chaos"
	"zombiescope/internal/livefeed"
)

var (
	fanoutSubs = flag.Int("fanout.subs", 768,
		"in-process subscribers per fan-out soak seed")
	fanoutClients = flag.Int("fanout.clients", 3,
		"reconnecting wire clients per fan-out soak seed")
	fanoutSeeds = flag.Int("fanout.seeds", 4,
		"how many seeds the fan-out soak runs (seeds 1..N)")
	fanoutSeed = flag.Uint64("fanout.seed", 0,
		"replay the fan-out soak under this one seed instead of the matrix")
	fanoutEvents = flag.Int("fanout.events", 1500,
		"events published per fan-out soak seed")
)

func fanoutSeedList() []uint64 {
	if *fanoutSeed != 0 {
		return []uint64{*fanoutSeed}
	}
	seeds := make([]uint64, *fanoutSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

var fanoutCollectors = []string{"rrc00", "rrc01", "rrc06"}

var fanoutPrefixes = []netip.Prefix{
	netip.MustParsePrefix("84.205.64.0/24"),
	netip.MustParsePrefix("84.205.65.0/24"),
	netip.MustParsePrefix("93.175.144.0/24"),
}

// fanoutEvent builds event i of the seeded stream: a mix of updates and
// zombie alerts across collectors, so channel- and collector-filtered
// shards all see traffic.
func fanoutEvent(rng *rand.Rand, i int) livefeed.Event {
	ts := time.Unix(1700000000+int64(i), 0).UTC()
	collector := fanoutCollectors[rng.Intn(len(fanoutCollectors))]
	peerAS := bgp.ASN(64500 + rng.Intn(4))
	if rng.Intn(8) == 0 {
		p := fanoutPrefixes[rng.Intn(len(fanoutPrefixes))]
		return livefeed.Event{
			Channel: livefeed.ChannelZombie, Type: livefeed.TypeZombie,
			Collector: collector, Timestamp: ts, PeerAS: peerAS,
			Alert: &livefeed.Alert{
				Prefix: p, Path: []bgp.ASN{peerAS, 12654},
				AnnouncedAt: ts.Add(-90 * time.Minute), DetectedAt: ts,
				IntervalStart: ts.Add(-2 * time.Hour), IntervalWithdraw: ts.Add(-30 * time.Minute),
			},
		}
	}
	return livefeed.Event{
		Channel: livefeed.ChannelUpdates, Type: livefeed.TypeUpdate,
		Collector: collector, Timestamp: ts, PeerAS: peerAS,
		Path: []bgp.ASN{peerAS, 3356, 12654},
		Announcements: []livefeed.Announcement{{
			NextHop:  netip.MustParseAddr("192.0.2.1"),
			Prefixes: []netip.Prefix{fanoutPrefixes[rng.Intn(len(fanoutPrefixes))]},
		}},
	}
}

// validateFrame checks one dequeued frame's shared bytes end to end:
// framing, checksum, and (sampled, they are expensive at 10k
// subscribers) a full JSON decode matching the frame's own sequence. Any
// buffer recycled while this subscriber still held a reference would
// show up here as a CRC mismatch or a foreign sequence number.
func validateFrame(fr livefeed.Frame, decodeJSON bool) error {
	wire := fr.Wire()
	rd := bytes.NewReader(wire)
	typ, payload, err := livefeed.ReadFrame(rd)
	if err != nil {
		return fmt.Errorf("seq %d: shared bytes do not parse: %w", fr.Seq(), err)
	}
	if typ != livefeed.FrameEvent {
		return fmt.Errorf("seq %d: shared bytes parse as frame type %d", fr.Seq(), typ)
	}
	if rd.Len() != 0 {
		return fmt.Errorf("seq %d: %d trailing bytes after the frame", fr.Seq(), rd.Len())
	}
	if !decodeJSON {
		return nil
	}
	var ev livefeed.Event
	if err := json.Unmarshal(payload, &ev); err != nil {
		return fmt.Errorf("seq %d: payload does not decode: %w", fr.Seq(), err)
	}
	if ev.Seq != fr.Seq() {
		return fmt.Errorf("frame says seq %d but payload decodes to seq %d (reused buffer?)", fr.Seq(), ev.Seq)
	}
	return nil
}

// heldFrame is one frame a torture subscriber keeps referenced across
// publish churn, with the byte snapshot taken at dequeue time.
type heldFrame struct {
	fr   livefeed.Frame
	snap []byte
}

// fanoutDrainer consumes one in-process subscriber until the stream
// ends, enforcing the shared-buffer invariants. kind selects behavior:
// "fast" drains eagerly, "holder" keeps a window of frames referenced
// while the feed churns past, "doomed" reads slowly on a tiny ring until
// kicked.
func fanoutDrainer(sub *livefeed.Subscriber, kind string, errs chan<- error) {
	var last uint64
	var held []heldFrame
	n := 0
	fail := func(err error) {
		select {
		case errs <- fmt.Errorf("%s drainer: %w", kind, err):
		default:
		}
	}
	releaseHeld := func(h heldFrame) bool {
		if !bytes.Equal(h.fr.Wire(), h.snap) {
			fail(fmt.Errorf("held frame seq %d mutated while referenced", h.fr.Seq()))
			return false
		}
		h.fr.Release()
		return true
	}
	defer func() {
		for _, h := range held {
			if !releaseHeld(h) {
				return
			}
		}
	}()
	for {
		fr, err := sub.NextFrame()
		if err != nil {
			switch {
			case errors.Is(err, livefeed.ErrBrokerClosed), errors.Is(err, livefeed.ErrClosed):
			case errors.Is(err, livefeed.ErrKicked):
				if kind != "doomed" {
					fail(fmt.Errorf("kicked, but this subscriber was keeping up: %w", err))
				}
			default:
				fail(err)
			}
			return
		}
		n++
		if err := validateFrame(fr, n%32 == 0); err != nil {
			fail(err)
			fr.Release()
			return
		}
		if seq := fr.Seq(); seq <= last {
			fail(fmt.Errorf("seq %d after %d: reordered or duplicated", seq, last))
			fr.Release()
			return
		} else {
			last = seq
		}
		switch kind {
		case "holder":
			// Keep a window of 8 frames referenced while the feed churns;
			// snapshot now, verify byte-stability at release.
			held = append(held, heldFrame{fr: fr, snap: append([]byte(nil), fr.Wire()...)})
			if len(held) > 8 {
				h := held[0]
				held = held[:copy(held, held[1:])]
				if !releaseHeld(h) {
					return
				}
			}
		case "doomed":
			fr.Release()
			if n%8 == 0 {
				time.Sleep(50 * time.Millisecond) // fall hopelessly behind on purpose
			}
		default:
			fr.Release()
		}
	}
}

// TestChaosFanoutSoak is the scale soak of the broadcast path. Flags
// scale it: CI runs a short seed list at 10k subscribers via
// -fanout.subs=10000 -fanout.seeds=2.
func TestChaosFanoutSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fan-out soak is not a -short test")
	}
	for _, seed := range fanoutSeedList() {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFanoutSeed(t, seed)
		})
	}
}

func runFanoutSeed(t *testing.T, seed uint64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -race -run 'TestChaosFanoutSoak' -fanout.seed=%d ./internal/chaos",
			seed, fmt.Sprintf(format, args...), seed)
	}

	broker := livefeed.NewBroker(livefeed.Config{RingSize: 256, ReplaySize: 1 << 12})
	defer broker.Close()
	srv := &livefeed.Server{
		Broker:            broker,
		Name:              "fanout-soak",
		HeartbeatInterval: 30 * time.Millisecond,
		WriteTimeout:      2 * time.Second,
		WriteBatch:        8, // small batches force many writev boundaries for resets to land in
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Resets and corruption stay enabled: connections die mid-writev
	// while the server holds the batch's frame references.
	inj := chaos.New(chaos.Plan{
		Seed:         seed,
		MeanGap:      2048,
		Horizon:      12,
		MaxLatency:   time.Millisecond,
		StallTimeout: 150 * time.Millisecond,
		MaxConns:     32,
	})
	go srv.Serve(inj.Listener(l))
	defer srv.Close()

	// In-process population: mostly fast drainers across filter shards,
	// plus holders (reuse-while-referenced torture) and doomed tiny-ring
	// slow readers that must get kicked without corrupting anyone else.
	errs := make(chan error, 16)
	var wg sync.WaitGroup
	subs := *fanoutSubs
	doomed := 0
	filters := []livefeed.Filter{
		{},
		{Channels: []string{livefeed.ChannelZombie}},
		{Channels: []string{livefeed.ChannelUpdates}},
		{Collectors: []string{"rrc00"}},
		{PeerAS: []bgp.ASN{64500, 64501}},
	}
	for i := 0; i < subs; i++ {
		kind := "fast"
		policy := livefeed.PolicyDropOldest
		switch {
		case i%97 == 5: // sparse: every doomed reader costs a kick
			kind, policy = "doomed", livefeed.PolicyKickSlowest
			doomed++
		case i%11 == 3:
			kind = "holder"
		}
		sub, _, err := broker.SubscribeFrom(filters[i%len(filters)], policy, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fanoutDrainer(sub, kind, errs)
		}()
	}

	// Wire clients: FromStart reconnecting consumers that must follow the
	// stream to head across chaos-forced reconnects. They subscribe
	// drop-oldest on the 256-slot ring, so when the proxy stalls a
	// connection the publisher laps the ring and the session sheds —
	// legitimately, and today silently. The soak therefore asserts what
	// that policy promises: a strictly increasing sequence that reaches
	// head, every hole accounted for by the broker's drop counter. Strict
	// contiguity (or gap-then-recover) returns with the gap frame, ROADMAP
	// item 1(d).
	type clientState struct {
		mu      sync.Mutex
		last    uint64
		missing uint64 // events skipped by sequence jumps
		errs    []error
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	states := make([]*clientState, *fanoutClients)
	clientDone := make(chan error, *fanoutClients)
	for c := 0; c < *fanoutClients; c++ {
		st := &clientState{}
		states[c] = st
		client := &livefeed.Client{
			Addr:             l.Addr().String(),
			MinBackoff:       time.Millisecond,
			MaxBackoff:       20 * time.Millisecond,
			HandshakeTimeout: 400 * time.Millisecond,
			IdleTimeout:      100 * time.Millisecond,
			FromStart:        true,
			OnEvent: func(ev livefeed.Event) {
				st.mu.Lock()
				defer st.mu.Unlock()
				if ev.Seq <= st.last {
					if len(st.errs) < 4 {
						st.errs = append(st.errs, fmt.Errorf("wire client: seq %d after %d: reordered or duplicated", ev.Seq, st.last))
					}
					return
				}
				st.missing += ev.Seq - st.last - 1
				st.last = ev.Seq
			},
		}
		go func() { clientDone <- client.Run(ctx) }()
	}

	// Publish the seeded stream. Occasional yields keep 10k drainers
	// scheduled on small CI machines.
	rng := rand.New(rand.NewSource(int64(seed)))
	events := *fanoutEvents
	for i := 0; i < events; i++ {
		broker.Publish(fanoutEvent(rng, i))
		if i%64 == 63 {
			time.Sleep(200 * time.Microsecond)
		}
	}
	head := broker.Seq()
	if head == 0 {
		fail("nothing published")
	}

	// Wire clients must drain to head despite the chaos.
	deadline := time.Now().Add(2 * time.Minute)
	for _, st := range states {
		for {
			st.mu.Lock()
			last := st.last
			cerrs := st.errs
			st.mu.Unlock()
			if len(cerrs) > 0 {
				fail("%v", cerrs[0])
			}
			if last == head {
				break
			}
			if time.Now().After(deadline) {
				fail("wire client stuck at seq %d of %d (%d connections)", last, head, inj.Conns())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	cancel()
	for range states {
		if err := <-clientDone; !errors.Is(err, context.Canceled) {
			fail("client Run returned %v, want context.Canceled", err)
		}
	}

	// End the in-process streams and wait for every drainer's final
	// held-frame stability checks.
	shards := broker.ShardCount()
	broker.Close()
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(2 * time.Minute):
		fail("in-process drainers did not finish after broker close")
	}
	select {
	case err := <-errs:
		fail("%v", err)
	default:
	}

	m, _ := broker.Metrics().Registry().Values()
	if got := m["livefeed_records_in_total"]; got != int64(events) {
		fail("livefeed_records_in_total = %d, want %d", got, events)
	}
	if doomed > 0 && m["livefeed_kicks_total"] == 0 {
		fail("no doomed reader was ever kicked (%d candidates): the soak did not stress kick-slowest", doomed)
	}
	if shards == 0 || shards > len(filters)+1 {
		fail("broker tracked %d filter shards for %d distinct filters", shards, len(filters))
	}
	// Every event a wire client never saw must be one its drop-oldest
	// session shed (the counter also covers the in-process subscribers, so
	// it bounds the holes from above).
	missing := make([]uint64, len(states))
	var missingSum uint64
	for i, st := range states {
		missing[i] = st.missing // clients have returned: no lock needed
		missingSum += st.missing
	}
	if missingSum > uint64(m["livefeed_drops_drop_oldest_total"]) {
		fail("wire clients missed %v events (%d in all) but the broker shed only %d: loss outside drop-oldest",
			missing, missingSum, m["livefeed_drops_drop_oldest_total"])
	}
	t.Logf("seed %d: head=%d subs=%d kicks=%d drops=%d wire_missing=%v conns=%d shards=%d",
		seed, head, subs, m["livefeed_kicks_total"], m["livefeed_drops_drop_oldest_total"], missing, inj.Conns(), shards)
}
