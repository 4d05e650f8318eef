// Store soak: kill the store-journaled pipeline mid-append under N
// seeded crash schedules — each seed picks its own kill point and tail
// damage (clean abandon, truncated tail, or a flipped byte in the last
// frame) — reopen, recover, re-ingest, and check the daemon's durability
// promises:
//
//   - the reopened store recovers a prefix of what was journaled and the
//     detector resumes from it without re-processing or skipping records;
//   - a FromStart subscriber after the crash sees a contiguous, gap-free
//     sequence — the journal serves everything the replay ring evicted,
//     with zero events reported lost;
//   - detection across the crash boundary is bit-identical to the batch
//     in-memory oracle: the union of alerts delivered before the kill and
//     alerts visible after recovery is exactly the oracle's route set
//     (at-least-once across the boundary, nothing missing, nothing
//     invented).
//
// A failing seed prints itself and the command that replays it alone:
//
//	go test -race -run 'TestStoreCrashSoak' -store.seed=N ./internal/chaos
package chaos_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"zombiescope/internal/eventstore"
	"zombiescope/internal/livefeed"
	"zombiescope/internal/zombie"
)

var (
	storeSeeds = flag.Int("store.seeds", 10,
		"how many seeds the store crash soak runs (seeds 1..N)")
	storeSeed = flag.Uint64("store.seed", 0,
		"replay the store crash soak under this one seed instead of the matrix")
)

func storeSeedList() []uint64 {
	if *storeSeed != 0 {
		return []uint64{*storeSeed}
	}
	seeds := make([]uint64, *storeSeeds)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

func TestStoreCrashSoak(t *testing.T) {
	sc := scenario(t)
	for _, seed := range storeSeedList() {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runStoreCrashSeed(t, sc, seed)
		})
	}
}

// nextTimeout is Subscriber.Next bounded by a wait of d. The event is
// decoded from the frame's wire bytes, as a client decodes it.
func nextTimeout(sub *livefeed.Subscriber, d time.Duration) (livefeed.Event, error) {
	fr, err := sub.NextFrameTimeout(d)
	if err != nil {
		return livefeed.Event{}, err
	}
	defer fr.Release()
	var ev livefeed.Event
	_, payload, err := livefeed.ReadFrame(bytes.NewReader(fr.Wire()))
	if err == nil {
		err = json.Unmarshal(payload, &ev)
	}
	return ev, err
}

// damageTail vandalizes the active (unsealed) segment the way a real
// crash can: mode 1 truncates up to 128 tail bytes, mode 2 flips one
// byte inside the last frame. Mode 0 leaves the abandoned file as is
// (write() data present, no seal). Returns a description for the log.
func damageTail(t *testing.T, dir string, rng *rand.Rand, mode uint64) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments on disk after ingest")
	}
	sort.Strings(segs) // fixed-width hex names: lexical == numeric
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= 32+64 { // header plus less than one realistic frame
		return "no damage (active segment too small)"
	}
	switch mode {
	case 1:
		cut := int64(1 + rng.Intn(128))
		if max := fi.Size() - 32 - 1; cut > max {
			cut = max
		}
		if err := os.Truncate(last, fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("truncated %d tail bytes of %s", cut, filepath.Base(last))
	case 2:
		off := fi.Size() - int64(1+rng.Intn(32))
		f, err := os.OpenFile(last, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, off); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("flipped byte at offset %d of %s", off, filepath.Base(last))
	default:
		return "clean abandon (no seal, no damage)"
	}
}

func runStoreCrashSeed(t *testing.T, sc *soakScenario, seed uint64) {
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -race -run 'TestStoreCrashSoak' -store.seed=%d ./internal/chaos",
			seed, fmt.Sprintf(format, args...), seed)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	mid := len(sc.stream)/4 + rng.Intn(len(sc.stream)/2)
	dir := t.TempDir()

	// Life 1: journaled pipeline ingests a prefix of the stream, with a
	// live subscriber recording the alerts actually delivered pre-crash.
	st1, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	b1 := livefeed.NewBroker(livefeed.Config{
		RingSize: 1 << 15, ReplaySize: 1 << 14,
		Journal: &livefeed.StoreJournal{Store: st1},
	})
	sub1, _, err := b1.Subscribe(livefeed.Filter{}, livefeed.PolicyBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1 := livefeed.NewPipeline(b1, sc.intervals, 0)
	for _, sr := range sc.stream[:mid] {
		p1.Ingest(sr)
	}

	// Crash: the store is abandoned mid-append — no seal, no final sync —
	// and the broker torn down. Drain what the pre-crash subscriber got.
	st1.Abandon()
	b1.Close()
	preRoutes := make(map[routeKey]bool)
	for {
		ev, err := nextTimeout(sub1, 5*time.Second)
		if err != nil {
			if !errors.Is(err, livefeed.ErrBrokerClosed) {
				fail("pre-crash subscriber drain: %v", err)
			}
			break
		}
		if ev.Channel == livefeed.ChannelZombie {
			peer := zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer}
			preRoutes[routeKey{peer, ev.Alert.Prefix.String(), ev.Alert.IntervalStart.Unix(), ev.Alert.Duplicate}] = true
		}
	}
	what := damageTail(t, dir, rng, seed%3)

	// Life 2: reopen (torn tail detected and truncated), recover the
	// detector from the surviving journal, resume ingest where it ends.
	st2, err := eventstore.Open(eventstore.Options{Dir: dir, SegmentBytes: 1 << 15})
	if err != nil {
		fail("reopen after %s: %v", what, err)
	}
	defer st2.Close()
	b2 := livefeed.NewBroker(livefeed.Config{
		RingSize: 1 << 15, ReplaySize: 256, // tiny window: resume must come from the journal
		Journal:  &livefeed.StoreJournal{Store: st2},
		StartSeq: st2.LastSeq(),
	})
	defer b2.Close()
	p2 := livefeed.NewPipeline(b2, sc.intervals, 0)
	n, err := p2.Recover(st2)
	if err != nil {
		fail("recover after %s: %v", what, err)
	}
	if n == 0 {
		fail("recovered 0 records after %s (mid=%d)", what, mid)
	}
	off := livefeed.ResumeOffset(sc.stream, n)
	if off > mid {
		fail("recovered %d records -> resume offset %d past kill point %d", n, off, mid)
	}
	for _, sr := range sc.stream[off:] {
		p2.Ingest(sr)
	}
	p2.Flush(sc.trackUntil)
	if pending := p2.PendingChecks(); pending != 0 {
		fail("detector left %d checks pending after recovery", pending)
	}
	head := b2.Seq()

	// Invariant 1: gap-free FromStart resume across the crash. The replay
	// ring only holds the last 256 events, so everything older must be
	// served from the journal — with nothing reported lost.
	sub2, lost, err := b2.SubscribeFrom(livefeed.Filter{}, livefeed.PolicyBlock, 0, true)
	if err != nil {
		fail("FromStart subscribe: %v", err)
	}
	defer sub2.Close()
	if lost != 0 {
		fail("FromStart resume lost %d events across the crash", lost)
	}
	postRoutes := make(map[routeKey]bool)
	for want := uint64(1); want <= head; want++ {
		ev, err := nextTimeout(sub2, 5*time.Second)
		if err != nil {
			fail("drain stalled at seq %d of %d: %v", want, head, err)
		}
		if ev.Seq != want {
			fail("sequence gap after crash: got %d, want %d", ev.Seq, want)
		}
		if ev.Channel == livefeed.ChannelZombie {
			peer := zombie.PeerID{Collector: ev.Collector, AS: ev.PeerAS, Addr: ev.Peer}
			postRoutes[routeKey{peer, ev.Alert.Prefix.String(), ev.Alert.IntervalStart.Unix(), ev.Alert.Duplicate}] = true
		}
	}

	// Invariant 2: detection across the crash boundary is bit-identical
	// to the in-memory oracle. Alerts cross the boundary at-least-once,
	// so the union of pre-crash deliveries and post-recovery stream must
	// be exactly the batch detector's route set.
	union := make(map[routeKey]bool, len(postRoutes))
	for k := range preRoutes {
		union[k] = true
	}
	for k := range postRoutes {
		union[k] = true
	}
	if err := equalRouteSets(sc.batchRoutes, union); err != nil {
		fail("store-backed detection vs batch oracle (%s): %v", what, err)
	}
	t.Logf("seed %d: kill@%d/%d, %s, recovered %d records (resume offset %d), head %d, pre-alerts %d, post-alerts %d",
		seed, mid, len(sc.stream), what, n, off, head, len(preRoutes), len(postRoutes))
}
